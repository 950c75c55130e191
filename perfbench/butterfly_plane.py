"""butterfly-clean's plane: paper Fig. 7's NC point on the packet simulator.

A round is one clean NC0 run (70 Mb/s, 4 blocks of 1460 B per
generation, coefficients-only payloads, no ARQ) for 1.25 simulated
seconds; every round of a run replays the run's seed.  Operations are
the generations the source starts before the settle margin at the end.
The check round captures the source's ``Encoder`` input, the receivers'
``Decoder`` output and the drops on the over-driven first hops.
"""

from __future__ import annotations

import gc
import time
from typing import Any

import numpy as np

import checks
from repro.core.vnf import CodingVnf
from repro.experiments.butterfly import (
    RECEIVERS,
    SOURCE,
    butterfly_graph,
    routing_only_capacity_mbps,
    run_butterfly_nc,
)
from repro.gf import GF256
from repro.net.link import Link
from repro.rlnc.decoder import Decoder
from repro.rlnc.encoder import Encoder
from repro.routing.maxflow import multicast_capacity
from rounds import Round, digest
from spans import patched

BUTTERFLY_RATE_MBPS = 70.0
BUTTERFLY_BLOCKS = 4
BUTTERFLY_WARMUP_S = 0.25
BUTTERFLY_DURATION_S = 1.0
#: Generations started later than this before the horizon are still in flight.
BUTTERFLY_SETTLE_S = 0.25
#: The over-driven first hops (the named fault) and where they drop.
SOURCE_LINKS = (("V1", "O1"), ("V1", "C1"))


class ButterflyPlane:
    """The clean butterfly data plane (paper Fig. 7, NC)."""

    name = "butterfly"
    #: Rounds per run at least, as cross-plane rounds too: with three,
    #: source_pkts_per_s of fleet-churn runs spread 0.26 over ten seeds.
    min_rounds = 5

    @staticmethod
    def round_seed(seed: int, index: int) -> int:
        """Every round replays the run's seed: the same operations each time."""
        return seed

    def setup(self) -> None:
        GF256.MUL  # noqa: B018 - builds the lazy product table before timing
        self.lost: set[int] | None = None  # filled by the check round

    def references(self) -> None:
        # Ford–Fulkerson multicast capacity (70 Mb/s) and the routing-only
        # tree-packing optimum (52.5 Mb/s): coding must land between them.
        self.upper_mbps = multicast_capacity(butterfly_graph(), SOURCE, list(RECEIVERS))
        self.lower_mbps = routing_only_capacity_mbps()

    def first_event(self, seed: int) -> None:
        """Build the session and fire its first simulated event."""
        run_butterfly_nc(duration_s=1e-9, warmup_s=0.0, seed=seed)

    def _simulate(self, seed: int) -> tuple[Any, float]:
        gc.collect()
        start = time.perf_counter()
        result = run_butterfly_nc(
            duration_s=BUTTERFLY_DURATION_S,
            warmup_s=BUTTERFLY_WARMUP_S,
            rate_mbps=BUTTERFLY_RATE_MBPS,
            blocks_per_generation=BUTTERFLY_BLOCKS,
            payload_mode="coefficients-only",
            seed=seed,
        )
        return result, time.perf_counter() - start

    def _observe(self, result: Any, host_s: float) -> Round:
        source = result.source
        horizon = BUTTERFLY_WARMUP_S + BUTTERFLY_DURATION_S
        # The source starts generation g at g·interval, accumulated the way
        # the scheduler accumulates its clock; no ARQ means no pacing debt.
        interval = source._gen_interval_s
        starts = []
        t = 0.0
        for _ in range(result.sent_generations):
            starts.append(t)
            t = t + interval
        attempted = [g for g, s in enumerate(starts) if s < horizon - BUTTERFLY_SETTLE_S]
        apps = [result.receivers[name] for name in sorted(result.receivers)]
        latencies_ms = []
        undecoded = set()
        for g in attempted:
            done = [app.completed.get(g) for app in apps]
            if None in done:
                undecoded.add(g)
            else:
                latencies_ms.append((max(done) - starts[g]) * 1e3)
        links = result.topology.links
        vnfs = [node for node in result.topology.nodes.values() if isinstance(node, CodingVnf)]
        lost = self.lost if self.lost is not None else set()
        failed = len(lost & set(attempted))
        goodput = result.session_throughput_mbps
        problems = checks.goodput_bounds(goodput, self.upper_mbps, self.lower_mbps)
        fingerprint = digest(
            [sorted(app.completed.items()) for app in apps],
            sorted((k, link.stats.as_dict()) for k, link in links.items()),
            source.sent_packets,
        )
        return Round(
            host_s=host_s,
            attempted=len(attempted),
            failed=failed,
            fingerprint=fingerprint,
            problems=problems,
            samples={
                "source_packets": source.sent_packets,
                "goodput_mbps": goodput,
                "latencies_ms": latencies_ms,
                "undecoded": undecoded,
                "attempted_ids": attempted,
                "result": result,
                "counters": {
                    "events": result.topology.scheduler.processed,
                    "link_sends": sum(link.stats.sent_packets for link in links.values()),
                    "queue_drops": sum(link.stats.dropped_queue for link in links.values()),
                    "loss_drops": sum(link.stats.dropped_loss for link in links.values()),
                    "vnf_packets": sum(vnf.processed_packets for vnf in vnfs),
                    "vnf_drops": sum(v.corrupt_dropped + v.duplicate_dropped + v.stale_dropped for v in vnfs),
                    "nacks": sum(app.nacks_sent for app in apps),
                    "repairs": source.repair_packets,
                    "rank_deficient": len(undecoded - lost),
                },
            },
        )

    def round(self, seed: int) -> Round:
        observed = self._observe(*self._simulate(seed))
        observed.samples.pop("result")
        return observed

    def check_round(self, seed: int) -> Round:
        """A round with the source's and receivers' bytes captured."""
        encoded: dict[int, bytes] = {}
        decoded: list[tuple[int, bytes]] = []
        lost: set[int] = set()

        def capture_encoder(init: Any) -> Any:
            def wrapper(self: Any, session_id: int, generation: Any, *args: Any, **kwargs: Any) -> None:
                init(self, session_id, generation, *args, **kwargs)
                encoded.setdefault(generation.generation_id, generation.blocks.tobytes())

            return wrapper

        def capture_decoder(add: Any) -> Any:
            def wrapper(self: Any, packet: Any) -> bool:
                was_complete = self.complete
                innovative = add(self, packet)
                if self.complete and not was_complete:
                    decoded.append((self.generation_id, self.decode().blocks.tobytes()))
                return innovative

            return wrapper

        def capture_drop(send: Any) -> Any:
            def wrapper(self: Any, dgram: Any) -> bool:
                sent = send(self, dgram)
                if not sent and (self.src, self.dst) in SOURCE_LINKS:
                    lost.add(dgram.payload.generation_id)
                return sent

            return wrapper

        with patched(
            (Encoder, "__init__", capture_encoder),
            (Decoder, "add", capture_decoder),
            (Link, "send", capture_drop),
        ):
            result, host_s = self._simulate(seed)
        self.lost = lost
        observed = self._observe(result, host_s)
        s = observed.samples
        problems = observed.problems
        problems += checks.decoded_bytes(encoded, decoded)
        completions = sum(len(app.completed) for app in result.receivers.values())
        if completions != len(decoded):
            problems.append(f"{len(decoded)} decodes captured but the receivers report {completions}")
        problems += checks.lost_generations_undecoded(lost & set(s["attempted_ids"]), s["undecoded"])
        s.pop("result")
        return observed

    @staticmethod
    def metrics(rounds: list[Round]) -> dict[str, float]:
        """Median host rate over rounds; simulated figures of the (identical) rounds."""
        first = rounds[0].samples
        return {
            "source_pkts_per_s": float(np.median([r.samples["source_packets"] / r.host_s for r in rounds])),
            "goodput_mbps": float(first["goodput_mbps"]),
            "gen_latency_p50_ms": float(np.percentile(first["latencies_ms"], 50)),
            "gen_latency_p99_ms": float(np.percentile(first["latencies_ms"], 99)),
        }
