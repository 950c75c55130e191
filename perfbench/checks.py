"""Output checks of the benchmark.

Each check compares what the program produced with a result computed
apart from it (scipy's HiGHS solver, a fresh surplus-index rebuild, the
source's own generation bytes) or with a property the method must have
(the Ford–Fulkerson multicast bound, zero-redundancy coding cannot
recover a lost degree of freedom).  Every function returns a list of
problem strings; an empty list means the check passed.  The functions
take plain data so ``test_checks.py`` can feed them deliberately wrong
outputs.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

#: Relative tolerance between the repo's simplex and HiGHS optima.
LP_REL_TOL = 1e-6
#: Admission counts a session as carried at its rate within this slack.
RATE_TOL_MBPS = 1e-6


def decoded_bytes(source_blocks: Mapping[int, bytes], decoded: Iterable[tuple[int, bytes]]) -> list[str]:
    """Every decoded generation equals, byte for byte, what the source encoded.

    ``decoded`` holds one ``(generation id, bytes)`` record per decode.
    """
    problems = []
    for gen_id, data in decoded:
        original = source_blocks.get(gen_id)
        if original is None:
            problems.append(f"a receiver decoded generation {gen_id} that the source never encoded")
        elif original != data:
            problems.append(f"a receiver decoded generation {gen_id} with bytes unequal to the source's")
    return problems


def goodput_bounds(goodput_mbps: float, upper_mbps: float, lower_mbps: float | None = None) -> list[str]:
    """Goodput stays at or under ``upper_mbps`` and, when given, above ``lower_mbps``."""
    problems = []
    if not goodput_mbps <= upper_mbps:
        problems.append(f"goodput {goodput_mbps:.4f} Mb/s exceeds the {upper_mbps:.4f} Mb/s bound")
    if lower_mbps is not None and not goodput_mbps > lower_mbps:
        problems.append(f"goodput {goodput_mbps:.4f} Mb/s is not above {lower_mbps:.4f} Mb/s")
    return problems


def lost_generations_undecoded(lost: Iterable[int], undecoded: set[int]) -> list[str]:
    """With zero redundancy and no ARQ a generation that lost a packet cannot decode."""
    decoded_anyway = sorted(set(lost) - undecoded)
    if decoded_anyway:
        return [f"generations {decoded_anyway[:5]} lost a source packet yet decoded everywhere"]
    return []


def lp_optimum(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    bounds: Sequence[tuple[float | None, float | None]],
    success: bool,
    objective: float,
) -> list[str]:
    """The simplex verdict and optimum equal HiGHS on the same program."""
    from scipy.optimize import linprog

    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=list(bounds), method="highs")
    if ref.status not in (0, 2):
        return [f"HiGHS could not settle the program (status {ref.status}: {ref.message})"]
    if success != (ref.status == 0):
        return [f"simplex success={success} but HiGHS status={ref.status}"]
    if success and abs(objective - ref.fun) > LP_REL_TOL * max(1.0, abs(ref.fun)):
        return [f"simplex optimum {objective!r} differs from HiGHS {ref.fun!r}"]
    return []


def index_matches_rebuild(live: object, rebuilt: object) -> list[str]:
    """The incremental surplus index equals a from-scratch rebuild."""
    if live != rebuilt:
        return [f"surplus index drifted from a fresh rebuild: {live!r} != {rebuilt!r}"]
    return []


def admitted_at_rate(verdicts: Iterable[Any]) -> list[str]:
    """Every join and replan admitted its session at the requested rate."""
    return [
        f"session {v.session_id}: {v.status.value} at {v.lambda_mbps!r} of {v.requested_mbps!r} Mb/s"
        for v in verdicts
        if not v.admitted or v.lambda_mbps < v.requested_mbps - RATE_TOL_MBPS
    ]


def drained(sessions: int, vnfs: int) -> list[str]:
    """The fleet returns to zero sessions and zero VNFs when the trace ends."""
    if sessions or vnfs:
        return [f"fleet did not drain: {sessions} sessions and {vnfs} VNFs left"]
    return []


def identical(label: str, first: object, second: object) -> list[str]:
    """Two runs of the same seed give the same simulated observables."""
    if first != second:
        return [f"{label}: a second run of the same seed diverged"]
    return []
