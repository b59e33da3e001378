"""Reported optima against routings that validate below them.

On the tight n = 40 draw ``random_instance(default_rng(5), 40, 8)`` the
bundled solve has reported ``optimal`` at F = 11115.183782 (13 nodes),
while HiGHS at ``mip_feasibility_tolerance`` 1e-7 finds the s = 5 routing
below at F = 11099.868598 (1,794 nodes). On ``default_rng(8)`` it has
reported ``optimal`` at F = 13210.044772 (2 nodes), while HiGHS under
``HIGHS_OPTIONS`` with ``random_seed`` 1 finds the s = 8 routing below at
F = 13204.851779 (49 nodes). ROADMAP item 15 tracks the cause.
"""

import numpy as np
import pytest

from cdsp import (
    SolveLimits,
    SolveStatus,
    assemble_solution,
    build_model,
    build_multigraph,
    preprocess_time_windows,
    solve,
    validate_solution,
)

from gen import random_instance

#: The s = 5 draw's better routing: one tuple of trips per vehicle.
S5_ROUTES = [
    ((2,), (34,), (30,)),
    ((7,), (8,), (36,), (29,), (39,), (6,)),
    ((13, 40), (26,), (24, 19), (27,)),
    ((14, 18, 22), (17,)),
    ((25, 4), (3,), (16,)),
    ((28,), (11, 15, 5), (37,), (1,)),
    ((32, 31, 20), (21,), (38,), (10,)),
    ((35,), (9, 33), (23,), (12,)),
]
S5_TOTAL = 11099.868598169925

#: The s = 8 draw's better routing.
S8_ROUTES = [
    ((12,), (35,), (14, 25)),
    ((18,), (24, 13), (26,), (1,), (3,)),
    ((20,), (34,), (16,), (5, 17)),
    ((21, 40, 33), (15, 36), (11,)),
    ((22,), (9,), (38,), (8,), (37,)),
    ((23,), (19, 10, 7), (28,)),
    ((29, 32), (27,), (2,), (4,)),
    ((39,), (30, 31), (6,)),
]
S8_TOTAL = 13204.851779359555


def _draw(seed):
    return random_instance(np.random.default_rng(seed), 40, 8)


def _check_routing_validates(seed, routes, total):
    inst = _draw(seed)
    windows = preprocess_time_windows(inst)
    sol = assemble_solution(routes, inst, windows)
    verdict = validate_solution(sol, inst, windows)
    assert verdict.ok, verdict.violations
    assert sol.total_completion == pytest.approx(total, abs=1e-6)


def _check_no_optimum_above(seed, total):
    # the callers are non-strict xfails: an older scipy bundles a HiGHS that
    # may not stop there, and a stop at the time limit claims no optimum
    inst = _draw(seed)
    outcome = solve(build_model(build_multigraph(inst), inst), SolveLimits(time_limit_s=30))
    claimed = outcome.objective if outcome.status is SolveStatus.OPTIMAL else None
    assert claimed is None or claimed <= total + 1e-6, claimed


def test_s5_routing_validates():
    _check_routing_validates(5, S5_ROUTES, S5_TOTAL)


def test_s8_routing_validates():
    _check_routing_validates(8, S8_ROUTES, S8_TOTAL)


@pytest.mark.xfail(strict=False, reason="ROADMAP item 15")
def test_bundled_solve_reports_no_optimum_above_the_s5_routing():
    _check_no_optimum_above(5, S5_TOTAL)


@pytest.mark.xfail(strict=False, reason="ROADMAP item 15")
def test_bundled_solve_reports_no_optimum_above_the_s8_routing():
    _check_no_optimum_above(8, S8_TOTAL)
