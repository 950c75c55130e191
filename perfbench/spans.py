"""Per-layer tracing from the benchmark's own files.

``Tracer.install()`` replaces public entry points of the program's
layers with timing wrappers and ``uninstall()`` puts the originals
back, so the program runs unchanged before and after in the same
interpreter.  Every wrapped call is a span (name, start, end, parent,
trace id); spans of one generation or one session share its id as
their trace id.  A layer's self time is the time of its spans minus
the time their child spans cover, so the self times of all layers add
up to the traced round's host time.

What is wrapped:

- ``EventScheduler.run`` (the ``net.scheduler`` span) and
  ``EventScheduler.schedule``, through which ``schedule_at`` and
  ``schedule_every`` also pass: every scheduled handler is timed and
  attributed to the package owning it (``net.link`` for links and
  nodes, ``core`` for the coding VNF, ``apps`` for source, receivers
  and control relays);
- ``Node.listen``, so port handlers are timed the same way, and
  ``Node.send`` (``net.link``);
- ``gf``: the ``GaloisField`` kernels; ``rlnc``: ``Encoder``,
  ``Recoder``, ``Decoder`` and ``CodedPacket.verify``;
- ``fleet``: ``FleetManager.admit/depart/replan_session``,
  ``SessionLP.solve`` and ``bind``, ``SurplusIndex.apply/release/rebuild``;
  ``lp``: ``solve_simplex``; ``routing``: the candidate-path
  enumeration of an admission.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: Layer of program code no wrapper claims, plus the benchmark's own glue.
OTHER = "other"


def _trace_id(args: tuple[Any, ...]) -> int | None:
    """Generation id of the first packet among a handler's arguments."""
    for arg in args:
        payload = getattr(arg, "payload", arg)
        gen = getattr(payload, "generation_id", None)
        if isinstance(gen, int):
            return gen
    return None


class Patches:
    """Attributes of classes or modules replaced in place, and put back by ``restore``."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@contextmanager
def patched(*replacements: tuple[Any, str, Callable[[Any], Any]]) -> Iterator[None]:
    """``(owner, attr, make)`` replacements in force inside the block only."""
    patches = Patches()
    try:
        for owner, attr, make in replacements:
            patches.patch(owner, attr, make)
        yield
    finally:
        patches.restore()


class Tracer:
    """Spans, self times and counts of one traced run."""

    def __init__(self) -> None:
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.pending_peak = 0
        self.keep_spans = True
        self.spans: list[tuple[int, int, str, int, float, float]] = []
        self._stack: list[list[Any]] = []
        self._next_id = 0
        self._patches = Patches()
        self._owner_cache: dict[Any, str] = {}

    # -- spans ------------------------------------------------------------

    def wrap(
        self,
        layer: str | Callable[[Any], str],
        name: str,
        fn: Callable[..., Any],
        trace_of: Callable[[tuple[Any, ...]], int | None] | None = None,
        count: Callable[[Counter[str], Any, tuple[Any, ...], str | None], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as a span; ``layer`` may be chosen from the result."""
        tracer = self
        perf = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        counts = self.counts

        def span(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            tid = trace_of(args) if trace_of is not None else None
            if tid is None:
                tid = parent[3] if parent is not None else -1
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [name, perf(), 0.0, tid, span_id]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counts, result, args, parent[0] if parent is not None else None)
                return result
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[1]
                owner = layer if isinstance(layer, str) else layer(result)
                self_s[owner] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if tracer.keep_spans:
                    tracer.spans.append(
                        (span_id, parent[4] if parent is not None else -1, name, tid, frame[1], end)
                    )

        return span

    def root(self, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Run one round as the root span; returns (result, host seconds)."""
        start = time.perf_counter()
        result = self.wrap(OTHER, "round", fn)()
        return result, time.perf_counter() - start

    # -- installing -------------------------------------------------------

    def _method(self, cls: type, attr: str, layer: Any, **kwargs: Any) -> None:
        name = f"{cls.__name__}.{attr}"
        self._patches.patch(cls, attr, lambda original: self.wrap(layer, name, original, **kwargs))

    def _owner(self, fn: Callable[..., Any]) -> str:
        obj = getattr(fn, "__self__", None)
        key = type(obj) if obj is not None else getattr(fn, "__qualname__", fn)
        layer = self._owner_cache.get(key)
        if layer is None:
            module = key.__module__ if isinstance(key, type) else getattr(fn, "__module__", "") or ""
            if module == "repro.net.events":
                layer = "net.scheduler"
            elif module.startswith("repro.net"):
                layer = "net.link"
            elif module.startswith("repro.core"):
                layer = "core"
            elif module.startswith("repro.apps"):
                layer = "apps"
            else:
                layer = OTHER
            self._owner_cache[key] = layer
        return layer

    def _handler(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        name = getattr(fn, "__qualname__", repr(fn))
        return self.wrap(self._owner(fn), name, fn, trace_of=_trace_id)

    def install(self) -> None:
        import repro.fleet.planner as planner_mod
        import repro.lp.simplex as simplex_mod
        from repro.fleet.capacity import SurplusIndex
        from repro.fleet.manager import FleetManager
        from repro.fleet.planner import SessionLP
        from repro.gf.field import GaloisField
        from repro.net.events import EventScheduler
        from repro.net.node import Node
        from repro.rlnc.decoder import Decoder
        from repro.rlnc.encoder import Encoder
        from repro.rlnc.packet import CodedPacket
        from repro.rlnc.recoder import Recoder

        tracer = self

        def traced_schedule(schedule: Callable[..., Any]) -> Callable[..., Any]:
            def span(sched: Any, delay: float, fn: Callable[..., Any], *args: Any) -> Any:
                event = schedule(sched, delay, tracer._handler(fn), *args)
                if sched._live > tracer.pending_peak:
                    tracer.pending_peak = sched._live
                return event

            return span

        self._patches.patch(EventScheduler, "schedule", traced_schedule)
        self._method(EventScheduler, "run", "net.scheduler")
        self._patches.patch(
            Node,
            "listen",
            lambda listen: lambda node, port, handler: listen(node, port, tracer._handler(handler)),
        )
        self._method(Node, "send", "net.link")

        def gf_count(counts: Counter[str], result: Any, args: Any, parent: str | None) -> None:
            counts["gf.calls"] += 1
            counts["gf.bytes"] += getattr(result, "nbytes", 0)

        for attr in ("matmul", "scale_into", "addmul_into", "linear_combination", "scale", "add", "inv"):
            self._method(GaloisField, attr, "gf", count=gf_count)

        def produced(key: str, group: str) -> Callable[..., None]:
            def count(counts: Counter[str], result: Any, args: Any, parent: str | None) -> None:
                if parent is None or not parent.startswith(group):
                    counts[key] += len(result) if isinstance(result, list) else 1

            return count

        for attr in ("next_packet", "next_packets", "coded_packets"):
            self._method(Encoder, attr, "rlnc", trace_of=lambda a: a[0].generation.generation_id,
                         count=produced("rlnc.encoded", "Encoder."))
        for attr in ("recode", "recode_batch"):
            self._method(Recoder, attr, "rlnc", trace_of=lambda a: a[0].generation_id,
                         count=produced("rlnc.recoded", "Recoder.recode"))
        self._method(Recoder, "add", "rlnc", trace_of=lambda a: a[0].generation_id)

        def decoder_count(counts: Counter[str], result: Any, args: Any, parent: str | None) -> None:
            counts["rlnc.decoder_adds"] += 1
            counts["rlnc.innovative_adds"] += bool(result)

        self._method(Decoder, "add", "rlnc", trace_of=lambda a: a[0].generation_id, count=decoder_count)
        self._method(Decoder, "decode", "rlnc", trace_of=lambda a: a[0].generation_id)
        self._method(CodedPacket, "verify", "rlnc", trace_of=lambda a: a[0].generation_id)

        session_of = lambda a: a[1] if isinstance(a[1], int) else a[1].session_id  # noqa: E731
        for attr in ("admit", "depart", "replan_session"):
            self._method(FleetManager, attr, "fleet", trace_of=session_of)
        self._method(FleetManager, "_candidate_paths", "routing")
        self._method(SessionLP, "solve", "fleet")
        self._method(SessionLP, "bind", "fleet.bind")
        for attr in ("apply", "release", "rebuild"):
            self._method(SurplusIndex, attr, "fleet.index")

        def lp_count(counts: Counter[str], result: Any, args: Any, parent: str | None) -> None:
            counts["lp.solves"] += 1
            counts["lp.warm_hits"] += bool(result.warm_started)
            counts["lp.pivots"] += result.iterations

        traced_simplex = self.wrap(
            lambda r: "lp.warm" if r is not None and r.warm_started else "lp.cold",
            "solve_simplex",
            simplex_mod.solve_simplex,
            count=lp_count,
        )
        for module in (simplex_mod, planner_mod):
            self._patches.patch(module, "solve_simplex", lambda original: traced_simplex)

    def uninstall(self) -> None:
        self._patches.restore()

    # -- output -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as gzip'd CSV: id,parent,name,trace,start,end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,parent,name,trace,start_s,end_s\n")
            out.writelines(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]:.9f},{s[5]:.9f}\n" for s in self.spans)
