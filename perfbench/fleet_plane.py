"""fleet-churn's plane: Poisson churn through ``FleetManager`` on OS3E.

A round drives two churn traces, each through a fresh manager,
replanning one live session after every join:

- the seeded part, 160 joins of one-receiver sessions drawn from the
  run's seed (round *i* of a run draws its own trace);
- the fixed part, the same trace in every round and on every seed: the
  repo's default mix of one to three receivers per session.

Operations are joins, replans and departures.  The check round
re-solves every ``solve_simplex`` program with HiGHS as it is solved
and compares the surplus index with a fresh rebuild as it goes.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Collection

import numpy as np

import checks
import repro.fleet.planner as planner
from repro.fleet import AdmissionStatus, AdmissionVerdict, ChurnTrace, FleetManager, SurplusIndex, fleet_of
from repro.fleet.churn import JOIN
from repro.net.topology import os3e_latency_ms
from rounds import Round, digest
from spans import patched

FLEET_DC_CITIES = (
    "Seattle",
    "Sunnyvale",
    "Denver",
    "Chicago",
    "Houston",
    "Atlanta",
    "New York",
    "Washington",
)
FLEET_ARRIVALS_PER_S = 4.0
FLEET_MEAN_HOLDING_S = 100.0
FLEET_DELAY_MS = (100.0,)
#: Joins of the seeded part, so every round attempts the same number of
#: operations; as many as the fixed part has, so that most admissions
#: are cold solves and the admission median sits inside that cluster.
FLEET_SEEDED_JOINS = 160
#: The seeded part's sessions have one receiver.  On multi-receiver
#: sessions ``solve_simplex`` now and then returns a vertex HiGHS beats
#: as "optimal" (CHANGES.md, FOUND), and which admissions hit it depends
#: on the trace, so a seeded multi-receiver trace would fail a different
#: share of its operations on every seed.  Over 30 one-receiver traces
#: (14,898 solves) it never occurred.
FLEET_SEEDED_RECEIVERS = (1, 1)
#: The fixed part: the first 40 s of arrivals of churn trace 1 with
#: ``ChurnTrace.generate``'s default one to three receivers.  One of its
#: admissions hits the simplex fault on every replay and is counted as
#: failed, so every run shows the fault and solves multicast LPs.
FLEET_FIXED_TRACE_SEED = 1
FLEET_FIXED_TRACE_S = 40.0
#: ``mean_vnfs`` averages the first this many rounds, the same ones for a seed.
FLEET_VNF_ROUNDS = 4
#: Compare the live surplus index with a fresh rebuild every this many events.
FLEET_INDEX_CHECK_EVERY = 25


class LpAudit:
    """Re-solves each ``solve_simplex`` program with HiGHS as the planner solves it.

    ``failures`` maps the index of the operation (set in ``op`` by the
    caller) to the problems HiGHS found with its solves.
    """

    def __init__(self) -> None:
        self.op = -1
        self.failures: dict[int, list[str]] = {}

    def wrap(self, solve: Callable[..., Any]) -> Callable[..., Any]:
        def audited(c: Any, a_ub: Any = None, b_ub: Any = None, bounds: Any = None, **kwargs: Any) -> Any:
            result = solve(c, a_ub=a_ub, b_ub=b_ub, bounds=bounds, **kwargs)
            problems = checks.lp_optimum(
                np.array(c), np.array(a_ub), np.array(b_ub), list(bounds), result.success, result.objective
            )
            if problems:
                self.failures.setdefault(self.op, []).extend(problems)
            return result

        return audited


class FleetPlane:
    """The fleet control plane under Poisson churn."""

    name = "fleet"
    min_rounds = FLEET_VNF_ROUNDS

    @staticmethod
    def round_seed(seed: int, index: int) -> int:
        """Each round draws a fresh seeded trace, so a run's samples span many LP shapes."""
        return seed * 1000 + index

    def setup(self) -> None:
        self.latency = os3e_latency_ms()
        # Operations of the fixed part that fail, found by the check
        # round, and its observables, which every round must replay.
        self.fixed_failed: Collection[int] = frozenset()
        self.fixed_fingerprint: str | None = None

    def references(self) -> None:
        """The fleet's checks need no reference figures ahead of the run."""

    def _manager(self) -> Any:
        # Quotas generous enough that every session is feasible: the
        # benchmark times admission and replanning, not rejection paths.
        datacenters = fleet_of(
            FLEET_DC_CITIES, inbound_mbps=1_000.0, outbound_mbps=1_000.0, coding_mbps=900.0
        )
        return FleetManager(datacenters, backbone_mbps=100_000.0, latency_ms=self.latency)

    def _seeded_trace(self, trace_seed: int) -> Any:
        """The first ``FLEET_SEEDED_JOINS`` sessions of a seeded trace, joins and leaves."""
        trace = ChurnTrace.generate(
            trace_seed,
            duration_s=1.5 * FLEET_SEEDED_JOINS / FLEET_ARRIVALS_PER_S,
            arrival_rate_per_s=FLEET_ARRIVALS_PER_S,
            mean_holding_s=FLEET_MEAN_HOLDING_S,
            delay_choices_ms=FLEET_DELAY_MS,
            receiver_range=FLEET_SEEDED_RECEIVERS,
        )
        last = trace.joins[FLEET_SEEDED_JOINS - 1].session_id
        return ChurnTrace(trace.seed, tuple(e for e in trace.events if e.session_id <= last))

    def _fixed_trace(self) -> Any:
        return ChurnTrace.generate(
            FLEET_FIXED_TRACE_SEED,
            duration_s=FLEET_FIXED_TRACE_S,
            arrival_rate_per_s=FLEET_ARRIVALS_PER_S,
            mean_holding_s=FLEET_MEAN_HOLDING_S,
            delay_choices_ms=FLEET_DELAY_MS,
        )

    def first_event(self, seed: int) -> None:
        """Build a fleet and decide its first admission."""
        self._manager().admit(self._seeded_trace(seed).joins[0].spec)

    def _drive(
        self,
        trace: Any,
        picks_seed: int,
        lp_failed: Collection[int] = (),
        audit: LpAudit | None = None,
        checkpoint: Callable[[Any], None] | None = None,
    ) -> Round:
        """One trace through a fresh manager; ``lp_failed`` are operations known to fail."""
        manager = self._manager()
        picks = np.random.default_rng(picks_seed)
        admit_s: list[float] = []
        replan_s: list[float] = []
        depart_s: list[float] = []
        verdicts: list[tuple[int, Any]] = []
        raised: set[int] = set()
        # VNFs are averaged over the arrival window: the drain after the
        # last join is a few stragglers whose length is a max of
        # exponentials, and would dominate the average's spread.
        vnf_area = 0.0
        clock = trace.events[0].time_s
        last_join = trace.joins[-1].time_s
        perf = time.perf_counter
        op = 0

        def begin() -> int:
            nonlocal op
            op += 1
            if audit is not None:
                audit.op = op
            return op

        gc.collect()
        for n, event in enumerate(trace.events):
            if event.time_s <= last_join:
                vnf_area += manager.index.total_vnfs * (event.time_s - clock)
                clock = event.time_s
            try:
                if event.kind == JOIN:
                    begin()
                    start = perf()
                    verdict = manager.admit(event.spec)
                    admit_s.append(perf() - start)
                    verdicts.append((op, verdict))
                    live = sorted(manager.plans)
                    if live:
                        begin()
                        start = perf()
                        verdict = manager.replan_session(live[int(picks.integers(len(live)))])
                        replan_s.append(perf() - start)
                        verdicts.append((op, verdict))
                else:
                    begin()
                    start = perf()
                    manager.depart(event.session_id)
                    depart_s.append(perf() - start)
            except Exception:  # noqa: BLE001 - an exception is a failed operation
                raised.add(op)
            if checkpoint is not None and n % FLEET_INDEX_CHECK_EVERY == 0:
                checkpoint(manager)
        if checkpoint is not None:
            checkpoint(manager)
        untyped = {
            n for n, v in verdicts if not isinstance(v, AdmissionVerdict) or v.status not in AdmissionStatus
        }
        failed_ops = raised | untyped | set(lp_failed)
        stranded = manager.active_sessions
        leftover_vnfs = 1 if manager.index.total_vnfs and not stranded else 0
        # A session a failed operation placed is that operation's failure,
        # not the check's.
        problems = checks.admitted_at_rate(v for n, v in verdicts if n not in failed_ops)
        problems += checks.drained(stranded, manager.index.total_vnfs)
        problems += checks.index_matches_rebuild(manager.index.canonical(), self._rebuilt(manager))
        return Round(
            host_s=sum(admit_s) + sum(replan_s) + sum(depart_s),
            attempted=op,
            failed=len(failed_ops) + stranded + leftover_vnfs,
            fingerprint=digest([v.canonical() for _, v in verdicts], manager.index.canonical()),
            problems=problems,
            samples={
                "joins": len(admit_s),
                "admit_s": admit_s,
                "replan_s": replan_s,
                "vnf_area": vnf_area,
                "span_s": last_join - trace.events[0].time_s,
                "counters": {"rejections": sum(1 for _, v in verdicts if not v.admitted)},
            },
        )

    def _rebuilt(self, manager: Any) -> Any:
        fresh = SurplusIndex(manager.index.edge_caps, manager.datacenters)
        fresh.rebuild(manager.plans.values())
        return fresh.canonical()

    def _fixed_part(self, audit: LpAudit | None = None, checkpoint: Any = None) -> Round:
        lp_failed = audit.failures if audit is not None else self.fixed_failed
        part = self._drive(self._fixed_trace(), FLEET_FIXED_TRACE_SEED, lp_failed, audit, checkpoint)
        if self.fixed_fingerprint is None:
            self.fixed_fingerprint = part.fingerprint
        part.problems += checks.identical("fixed trace", self.fixed_fingerprint, part.fingerprint)
        return part

    def round(self, seed: int) -> Round:
        return _joined(self._drive(self._seeded_trace(seed), seed), self._fixed_part())

    def check_round(self, seed: int) -> Round:
        """A round whose every LP solve is re-solved by HiGHS as it happens.

        A solve HiGHS beats fails its operation in the fixed part; in the
        seeded part it fails the check.
        """
        index_problems: list[str] = []

        def check_index(manager: Any) -> None:
            live = manager.index.canonical()
            index_problems.extend(checks.index_matches_rebuild(live, self._rebuilt(manager)))

        seeded_audit, fixed_audit = LpAudit(), LpAudit()
        with patched((planner, "solve_simplex", seeded_audit.wrap)):
            seeded = self._drive(self._seeded_trace(seed), seed, (), seeded_audit, check_index)
        with patched((planner, "solve_simplex", fixed_audit.wrap)):
            fixed = self._fixed_part(fixed_audit, check_index)
        self.fixed_failed = frozenset(fixed_audit.failures)
        seeded.problems += [
            f"seeded operation {op}: {problem}"
            for op, problems in seeded_audit.failures.items()
            for problem in problems
        ]
        observed = _joined(seeded, fixed)
        observed.problems += index_problems
        return observed

    @staticmethod
    def metrics(rounds: list[Round]) -> dict[str, float]:
        """Host figures as medians over rounds of per-round figures."""

        def per_round(samples: str, q: float) -> float:
            return float(np.median([np.percentile(r.samples[samples], q) for r in rounds]) * 1e3)

        vnf_rounds = rounds[:FLEET_VNF_ROUNDS]
        return {
            "admit_per_s": float(np.median([r.samples["joins"] / r.host_s for r in rounds])),
            "admit_p50_ms": per_round("admit_s", 50),
            "admit_p95_ms": per_round("admit_s", 95),
            "replan_p50_ms": per_round("replan_s", 50),
            "replan_p95_ms": per_round("replan_s", 95),
            "mean_vnfs": sum(r.samples["vnf_area"] for r in vnf_rounds)
            / sum(r.samples["span_s"] for r in vnf_rounds),
        }


def _joined(seeded: Round, fixed: Round) -> Round:
    """One round of the two parts."""
    a, b = seeded.samples, fixed.samples
    return Round(
        host_s=seeded.host_s + fixed.host_s,
        attempted=seeded.attempted + fixed.attempted,
        failed=seeded.failed + fixed.failed,
        fingerprint=digest(seeded.fingerprint, fixed.fingerprint),
        problems=seeded.problems + fixed.problems,
        samples={
            "joins": a["joins"] + b["joins"],
            "admit_s": a["admit_s"] + b["admit_s"],
            "replan_s": a["replan_s"] + b["replan_s"],
            "vnf_area": a["vnf_area"] + b["vnf_area"],
            "span_s": a["span_s"] + b["span_s"],
            "counters": {"rejections": a["counters"]["rejections"] + b["counters"]["rejections"]},
        },
    )
