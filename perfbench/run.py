"""The repository's benchmark: one command per workload run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload butterfly-clean --seed 1 --seconds 30 --trace 0

Workloads:

- ``butterfly-clean`` times the clean NC0 butterfly data plane (paper
  Fig. 7's NC point) for ``--seconds``;
- ``fleet-churn`` times Poisson join/replan/leave churn through
  ``FleetManager`` on the OS3E overlay for ``--seconds``.

Each run builds the program from ``src/`` of the checkout, runs an
untimed check round whose outputs are compared with results computed
apart from the program, then whole rounds of the workload until
``--seconds`` have passed; then it sets the program up several times in
fresh interpreters to measure ``setup_s`` and runs one round of the
workload alone in one more to measure ``peak_rss_mb``.  With
``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric; with ``--trace 1`` the rounds run under the
per-layer tracer of ``spans.py`` and the object holds every per-layer
metric, while the kept spans go to ``perfbench/out/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SPEC = BENCH_DIR.parent / "BENCHMARK.json"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
#: Rounds of the other plane are interleaved with the workload's own
#: until they have taken this share of its host time, so every run
#: reports every end-to-end metric, each measured across the whole run
#: (see README, "Cross-plane rounds").
CROSS_SHARE = 1 / 3


#: Workload -> (its own plane, the plane of its cross-plane rounds), as
#: (module, class) pairs imported only when needed, so a set-up probe
#: pays for nothing but its own plane's modules.
WORKLOADS = {
    "butterfly-clean": (("butterfly_plane", "ButterflyPlane"), ("fleet_plane", "FleetPlane")),
    "fleet-churn": (("fleet_plane", "FleetPlane"), ("butterfly_plane", "ButterflyPlane")),
}


def _plane(module_and_class: tuple[str, str]) -> Any:
    module, cls = module_and_class
    return getattr(importlib.import_module(module), cls)()


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--probe", choices=("setup", "rss"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def probe(kind: str, workload: str, seed: int) -> str:
    """What one fresh interpreter reports about the workload's own plane.

    ``setup``: the system-wide monotonic clock once the program is set
    up and has reached its first event, so interpreter shutdown is not
    counted.  ``rss``: the peak resident memory, in MB, of set-up and
    one round.
    """
    plane = _plane(WORKLOADS[workload][0])
    plane.setup()
    if kind == "setup":
        plane.first_event(seed)
        return repr(time.monotonic())
    plane.references()
    plane.round(plane.round_seed(seed, 0))
    return repr(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def run_probe(kind: str, workload: str, seed: int) -> float:
    """Start ``probe(kind, ...)`` in a fresh interpreter and return its figure."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0", "--probe", kind]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    word, _, figure = done.stdout.strip().rpartition("\n")[2].partition(" ")
    if done.returncode != 0 or word != kind:
        raise RuntimeError(f"{kind} probe failed (exit {done.returncode}): {done.stderr[-500:]}")
    return float(figure)


def measure_setup(workload: str, seed: int) -> float:
    """Median time from interpreter start to the first simulated event or admission."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        times.append(run_probe("setup", workload, seed) - start)
    return statistics.median(times)


def timed_rounds(
    plane: Any, seed: int, seconds: float, other: Any = None, run: Any = None
) -> tuple[list[Any], list[Any]]:
    """Whole rounds of ``plane`` until ``seconds`` have passed, with ``other``'s interleaved.

    ``run`` replaces ``plane.round`` and then replays the first round's
    seed every time, so all rounds do the same work.
    """
    rounds: list[Any] = []
    cross: list[Any] = []

    def cross_round() -> None:
        cross.append(other.round(other.round_seed(seed, len(cross))))

    deadline = time.perf_counter() + seconds
    while len(rounds) < plane.min_rounds or time.perf_counter() < deadline:
        if run is None:
            rounds.append(plane.round(plane.round_seed(seed, len(rounds))))
        else:
            rounds.append(run(plane.round_seed(seed, 0)))
        own_s = sum(r.host_s for r in rounds)
        while other is not None and sum(r.host_s for r in cross) < CROSS_SHARE * own_s:
            cross_round()
    while other is not None and len(cross) < other.min_rounds:
        cross_round()
    return rounds, cross


def per_layer(tracer: Any, traced: list[Any], untraced: list[Any], round_s: list[float]) -> dict[str, float]:
    """Per-round per-layer figures of the traced rounds."""
    n = len(traced)
    c = traced[0].samples["counters"]
    counts = tracer.counts
    self_s = {layer: seconds / n for layer, seconds in tracer.self_s.items()}
    adds = counts["rlnc.decoder_adds"]
    solves = counts["lp.solves"]
    return {
        "net.events": c.get("events", 0),
        "net.link_sends": c.get("link_sends", 0),
        "net.pending_peak": tracer.pending_peak,
        "net.queue_drops": c.get("queue_drops", 0),
        "net.loss_drops": c.get("loss_drops", 0),
        "net.scheduler_self_s": self_s.get("net.scheduler", 0.0),
        "net.link_self_s": self_s.get("net.link", 0.0),
        "gf.calls": counts["gf.calls"] // n,
        "gf.bytes": counts["gf.bytes"] // n,
        "gf.self_s": self_s.get("gf", 0.0),
        "rlnc.encoded": counts["rlnc.encoded"] // n,
        "rlnc.recoded": counts["rlnc.recoded"] // n,
        "rlnc.decoder_adds": adds // n,
        "rlnc.innovative_ratio": counts["rlnc.innovative_adds"] / adds if adds else 0.0,
        "rlnc.self_s": self_s.get("rlnc", 0.0),
        "rlnc.rank_deficient": c.get("rank_deficient", 0),
        "core.vnf_packets": c.get("vnf_packets", 0),
        "core.vnf_drops": c.get("vnf_drops", 0),
        "core.vnf_self_s": self_s.get("core", 0.0),
        "apps.nacks": c.get("nacks", 0),
        "apps.repairs": c.get("repairs", 0),
        "apps.self_s": self_s.get("apps", 0.0),
        "fleet.rejections": c.get("rejections", 0),
        "fleet.self_s": self_s.get("fleet", 0.0),
        "fleet.bind_s": self_s.get("fleet.bind", 0.0),
        "fleet.index_s": self_s.get("fleet.index", 0.0),
        "lp.solves": solves // n,
        "lp.warm_hits": counts["lp.warm_hits"] // n,
        "lp.pivots": counts["lp.pivots"] // n,
        "lp.warm_hit_ratio": counts["lp.warm_hits"] / solves if solves else 0.0,
        "lp.simplex_cold_s": self_s.get("lp.cold", 0.0),
        "lp.simplex_warm_s": self_s.get("lp.warm", 0.0),
        "routing.paths_s": self_s.get("routing", 0.0),
        "trace.other_s": self_s.get("other", 0.0),
        "trace.host_s": statistics.fmean(round_s),
        "trace.overhead_s": statistics.median(r.host_s for r in traced)
        - statistics.median(r.host_s for r in untraced),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One run: check round, timed (or traced) rounds, and the result object."""
    plane = _plane(WORKLOADS[workload][0])
    plane.setup()
    plane.references()
    first_seed = plane.round_seed(seed, 0)
    check = plane.check_round(first_seed)
    problems = list(check.problems)
    rank_deficient = check.samples["counters"].get("rank_deficient")
    if rank_deficient is not None:
        print(f"note: {rank_deficient} generations per round lost no packet to the over-driven hops "
              "yet never decoded; not counted as failed (see perfbench/README.md)", file=sys.stderr)

    if trace:
        from spans import Tracer

        untraced = [plane.round(first_seed)]
        tracer = Tracer()
        round_s: list[float] = []

        def traced_round(s: int) -> Any:
            gc.collect()
            result, host = tracer.root(lambda: plane.round(s))
            round_s.append(host)
            tracer.keep_spans = False  # spans of the first traced round only
            return result

        tracer.install()
        try:
            rounds, _ = timed_rounds(plane, seed, seconds, run=traced_round)
        finally:
            tracer.uninstall()
        untraced.append(plane.round(first_seed))
        for r in rounds + untraced:
            problems += r.problems + checks_identical(check, r)
        tracer.write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.csv.gz")
        values = per_layer(tracer, rounds, untraced, round_s)
    else:
        other = _plane(WORKLOADS[workload][1])
        other.setup()
        other.references()
        rounds, cross = timed_rounds(plane, seed, seconds, other=other)
        # Rounds that replay the check round's seed must replay it bit for bit.
        for r in rounds:
            problems += r.problems
        for r in [r for i, r in enumerate(rounds) if plane.round_seed(seed, i) == first_seed]:
            problems += checks_identical(check, r)
        for r in cross:
            problems += r.problems
        for r in [r for i, r in enumerate(cross) if other.round_seed(seed, i) == other.round_seed(seed, 0)]:
            problems += checks_identical(cross[0], r)
        values = plane.metrics(rounds)
        values.update(other.metrics(cross))
        values["setup_s"] = measure_setup(workload, seed)
        values["peak_rss_mb"] = run_probe("rss", workload, seed)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    # Names and units come from BENCHMARK.json, so every listed metric is
    # reported (a missing one raises) and nothing else is.
    listed = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


def checks_identical(check: Any, observed: Any) -> list[str]:
    import checks

    return checks.identical("simulated observables", check.fingerprint, observed.fingerprint)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"the program's sources are missing: {SRC / 'repro'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        print(f"{args.probe} {probe(args.probe, args.workload, args.seed)}", flush=True)
        return 0
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
