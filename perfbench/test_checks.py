"""Self-tests of the benchmark: every output check fires on a wrong output.

Run with ``python3 -m pytest perfbench/test_checks.py`` from the
repository root.  Each test first shows the check passing on a genuine
output of the program, then feeds it a deliberately wrong one.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import repro.fleet.planner as planner  # noqa: E402
from fleet_plane import LpAudit  # noqa: E402
from repro.fleet import FleetManager, SessionSpec, SurplusIndex, fleet_of  # noqa: E402
from repro.rlnc import Decoder, Encoder, Generation  # noqa: E402
from spans import patched  # noqa: E402

DC_CITIES = ("Seattle", "Denver", "Chicago", "New York")


def _fleet(n_sessions: int) -> FleetManager:
    manager = FleetManager(fleet_of(DC_CITIES), backbone_mbps=100_000.0)
    for sid in range(1, n_sessions + 1):
        spec = SessionSpec(sid, "Boston", ("Sunnyvale", "Houston")[: 1 + sid % 2], rate_mbps=5.0 * sid)
        assert manager.admit(spec).admitted
    return manager


def _rebuilt(manager: FleetManager, plans: list) -> tuple:
    fresh = SurplusIndex(manager.index.edge_caps, manager.datacenters)
    fresh.rebuild(plans)
    return fresh.canonical()


def test_flipped_decoded_byte_fires() -> None:
    rng = np.random.default_rng(3)
    generation = Generation(0, rng.integers(0, 256, size=(4, 64), dtype=np.uint8))
    encoder = Encoder(1, generation, systematic=False, rng=rng)
    decoder = Decoder(1, 0, 4, 64)
    for packet in encoder.coded_packets(8):
        decoder.add(packet)
        if decoder.complete:
            break
    decoded = decoder.decode().blocks.tobytes()
    source = {0: generation.blocks.tobytes()}
    assert checks.decoded_bytes(source, [(0, decoded)]) == []
    flipped = bytearray(decoded)
    flipped[17] ^= 0x01
    assert checks.decoded_bytes(source, [(0, bytes(flipped))])
    assert checks.decoded_bytes(source, [(1, decoded)])  # never encoded


def test_goodput_above_the_multicast_bound_fires() -> None:
    from repro.experiments.butterfly import routing_only_capacity_mbps, theoretical_capacity_mbps

    upper, lower = theoretical_capacity_mbps(), routing_only_capacity_mbps()
    assert (upper, lower) == (70.0, 52.5)
    assert checks.goodput_bounds(65.27, upper, lower) == []
    assert checks.goodput_bounds(70.01, upper, lower)
    assert checks.goodput_bounds(52.5, upper, lower)  # no coding gain


def test_lp_objective_off_by_one_percent_fires() -> None:
    programs = []

    def capture(solve):
        def wrapper(c, a_ub=None, b_ub=None, bounds=None, **kwargs):
            result = solve(c, a_ub=a_ub, b_ub=b_ub, bounds=bounds, **kwargs)
            program = (np.array(c), np.array(a_ub), np.array(b_ub), list(bounds))
            programs.append((*program, result.success, result.objective))
            return result

        return wrapper

    with patched((planner, "solve_simplex", capture)):
        _fleet(2)
    assert programs
    assert planner.solve_simplex.__name__ == "solve_simplex"  # put back
    for c, a, b, bounds, success, objective in programs:
        assert checks.lp_optimum(c, a, b, bounds, success, objective) == []
        assert checks.lp_optimum(c, a, b, bounds, success, objective * 1.01)
        assert checks.lp_optimum(c, a, b, bounds, not success, objective)


def test_lp_audit_fails_the_operation_of_a_wrong_solve() -> None:
    def off_by_one_percent(solve):
        def wrapper(*args, **kwargs):
            result = solve(*args, **kwargs)
            result.objective *= 1.01
            return result

        return wrapper

    audit = LpAudit()
    with patched((planner, "solve_simplex", audit.wrap)):
        audit.op = 1
        _fleet(1)
    assert audit.failures == {}
    with patched((planner, "solve_simplex", lambda solve: audit.wrap(off_by_one_percent(solve)))):
        audit.op = 2
        _fleet(1)
    assert list(audit.failures) == [2]


def test_index_off_by_one_session_fires() -> None:
    manager = _fleet(3)
    plans = list(manager.plans.values())
    assert checks.index_matches_rebuild(manager.index.canonical(), _rebuilt(manager, plans)) == []
    assert checks.index_matches_rebuild(manager.index.canonical(), _rebuilt(manager, plans[:-1]))


def test_rejection_and_undrained_fleet_fire() -> None:
    manager = _fleet(1)
    verdict = manager.verdicts[-1]
    assert checks.admitted_at_rate([verdict]) == []
    too_big = SessionSpec(9, "Boston", ("Sunnyvale",), rate_mbps=1e9)
    assert checks.admitted_at_rate([manager.admit(too_big)])
    assert checks.drained(manager.active_sessions, manager.index.total_vnfs)
    manager.depart(1)
    assert checks.drained(manager.active_sessions, manager.index.total_vnfs) == []


def test_lost_generation_that_decodes_fires() -> None:
    assert checks.lost_generations_undecoded({3, 9}, {3, 9, 12}) == []
    assert checks.lost_generations_undecoded({3, 9}, {3})


def test_diverging_replay_fires() -> None:
    assert checks.identical("fingerprint", "ab", "ab") == []
    assert checks.identical("fingerprint", "ab", "ac")
