"""Multiplier solves: moment systems, Jacobian structure, both branches."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betaincinv

from harmonic_schwarz import (
    ProblemSpec,
    SolverError,
    jacobian_RI,
    kernel_inverse,
    kernel_profile,
    moments_RI,
    solve_positive_b,
    solve_zero_b,
    solver,
    zonal_integrate,
    zonal_rule,
)
from harmonic_schwarz.bounds import axis_bound, directional_bound
from harmonic_schwarz.oracle import jacobian_fd_check
from harmonic_schwarz.solver import _dual_terms, _field_integrals, solve_batch
from harmonic_schwarz.sphere import _zonal_constant, segmented_nodes


def jump_latitude_oracle(n: int, a1: float) -> float:
    # sigma{t > t*} - sigma{t < t*} = a1 inverted through the regularized
    # incomplete beta function of the latitude density (1-t^2)^((n-3)/2)
    return 2.0 * betaincinv((n - 1) / 2, (n - 1) / 2, (1.0 - a1) / 2.0) - 1.0


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(n=1, m=1, r=0.5, a=np.zeros(1), b=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(n=2, m=1, r=1.0, a=np.zeros(1), b=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(n=2, m=2, r=0.5, a=np.zeros(1), b=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(n=2, m=1, r=0.5, a=np.array([0.8]), b=0.6)  # |a|^2+b^2 = 1
    for a, b in (([math.nan], 0.0), ([0.1], math.nan), ([math.inf], 0.0), ([0.1], -math.inf)):
        with pytest.raises(ValueError):
            ProblemSpec(n=2, m=1, r=0.5, a=np.array(a), b=b)
    for n, m in ((3.5, 1), (3, 1.0), (3.0, 1), ("3", 1)):  # no sphere of dimension 3.5
        with pytest.raises(ValueError, match="must be an integer"):
            ProblemSpec(n=n, m=m, r=0.5, a=[0.2], b=0.1)


def test_problem_spec_takes_numpy_integer_dimensions_as_ints():
    spec = ProblemSpec(n=np.int64(3), m=np.int32(1), r=0.5, a=[0.2], b=0.1)
    assert (type(spec.n), type(spec.m)) == (int, int)
    assert axis_bound(spec).value == axis_bound(ProblemSpec(n=3, m=1, r=0.5, a=[0.2], b=0.1)).value


def test_kernel_profile_range_and_value():
    assert kernel_profile(0.3, 4, 1.0) == pytest.approx(0.7**-4, rel=1e-14)
    assert kernel_profile(0.3, 4, -1.0) == pytest.approx(1.3**-4, rel=1e-14)
    assert kernel_profile(0.5, 2, 0.0) == pytest.approx(0.8, rel=1e-14)
    t = np.linspace(-1.0, 1.0, 101)
    values = kernel_profile(0.7, 3, t)
    assert np.all(np.diff(values) > 0)


def test_kernel_inverse_round_trip():
    for t in (-0.9, -0.2, 0.0, 0.55, 0.99):
        y = kernel_profile(0.6, 5, t)
        assert kernel_inverse(0.6, 5, y) == pytest.approx(t, abs=1e-12)


@pytest.mark.parametrize("y", [-1.0, 0.0, math.nan])
def test_kernel_inverse_rejects_a_level_that_is_not_positive(y):
    # -1 gave the complex latitude (1.75+0.866j) and 0 a ZeroDivisionError
    with pytest.raises(ValueError, match="y > 0"):
        kernel_inverse(0.5, 3, y)


def test_moments_limits_large_mu():
    spec = ProblemSpec(n=3, m=2, r=0.5, a=np.array([0.1, 0.1]), b=0.3)
    rule = zonal_rule(3)
    moved, mass = moments_RI(spec, np.array([0.2, 0.1]), 1e8, rule)
    assert mass == pytest.approx(1.0, abs=1e-7)
    assert np.abs(moved).max() < 1e-7


def test_moments_bounds_and_tail_identity():
    rng = np.random.default_rng(0)
    rule = zonal_rule(4)
    spec = ProblemSpec(n=4, m=3, r=0.6, a=np.zeros(3), b=0.5)
    for _ in range(10):
        lam = rng.uniform(-1.0, 1.5, size=3)
        mu = float(rng.uniform(0.2, 3.0))
        moved, mass = moments_RI(spec, lam, mu, rule)
        assert np.abs(moved).max() < 1.0
        assert 0.0 < mass < 1.0
        # constant tail components factor out of the integral
        np.testing.assert_allclose(moved[1:], (-lam[1:] / mu) * mass, atol=1e-14)


@pytest.mark.parametrize("b", [1e-160, 1e-200])
def test_moments_at_a_tiny_mu_stay_finite_and_correct(b):
    # mu ~ 5e-161 and below: A = (g l - lam) / mu would overflow when squared
    spec = ProblemSpec(n=3, m=2, r=0.5, a=np.array([0.3, 0.0]), b=b)
    sol = solve_positive_b(spec)
    own = (zonal_rule(3), sol.breakpoints, sol.layer)
    moved, mass = moments_RI(spec, sol.lam, sol.mu, *own)
    np.testing.assert_allclose(moved, spec.a, atol=1e-10)
    assert 0.0 < mass < 1e-10
    assert np.all(np.isfinite(jacobian_RI(spec, sol.lam, sol.mu, *own)))


def test_moments_and_jacobian_place_a_layer_on_its_own_nodes():
    # a layer passed with the plain rule wrote its offsets over the rule's
    # last nodes: R_1 = -0.404 and I = 0.0385 instead of 0.3 and 1e-9
    spec = ProblemSpec(n=3, m=2, r=0.5, a=np.array([0.3, 0.0]), b=1e-9)
    sol = solve_positive_b(spec)
    rule = zonal_rule(3)
    moved, mass = moments_RI(spec, sol.lam, sol.mu, rule, layer=sol.layer)
    np.testing.assert_allclose(moved, spec.a, atol=1e-10)
    assert mass == pytest.approx(spec.b, abs=1e-10)
    jac = jacobian_RI(spec, sol.lam, sol.mu, rule, layer=sol.layer)
    own = jacobian_RI(spec, sol.lam, sol.mu, rule, sol.breakpoints, sol.layer)
    np.testing.assert_allclose(jac, own, rtol=1e-10, atol=1e-10 * np.abs(own).max())
    # P0 = -dR_1/dlam_1 tends to 2 c_3 / g'(t*) as the layer thins
    t_star = kernel_inverse(0.5, 3, sol.lam[0])
    assert -jac[0, 0] == pytest.approx(2.0 * _zonal_constant(3) / (1.5 * (1.25 - t_star) ** -2.5), rel=1e-6)


@pytest.mark.parametrize(
    "spec",
    [
        ProblemSpec(n=3, m=2, r=0.5, a=np.array([0.3, 0.0]), b=1e-9),
        ProblemSpec(n=4, m=2, r=0.97, a=np.array([0.2, -0.3]), b=0.4),
        ProblemSpec(n=3, m=2, r=0.4, a=np.array([0.2, 0.3]), b=0.0),
    ],
    ids=["layer", "cap", "zero_b"],
)
def test_moments_and_jacobian_on_a_solutions_rule_are_its_own_integrals(spec):
    # given (rule, breakpoints, layer) they are the field's integrals on
    # segmented_nodes(rule, breakpoints, layer), bit for bit
    sol = solve_batch([spec])[0]
    rule, mu = zonal_rule(spec.n), sol.mu or 0.0
    t, w = segmented_nodes(rule, sol.breakpoints, sol.layer)
    s = np.array([math.hypot(mu, *sol.lam[1:])])
    _, moment, inv_r, p0, *_ = _field_integrals([kernel_profile(spec.r, spec.n, t)], [w], [sol.layer], sol.lam[:1], s)
    moved, mass = moments_RI(spec, sol.lam, mu, rule, sol.breakpoints, sol.layer)
    assert moved.tobytes() == np.append(moment, -sol.lam[1:] * inv_r).tobytes()
    assert mass == mu * inv_r[0]
    if sol.mu is None:
        # the crossing the b = 0 moments cut at is the solution's breakpoint
        assert moments_RI(spec, sol.lam, 0.0, rule)[0].tobytes() == moved.tobytes()
    else:
        assert -jacobian_RI(spec, sol.lam, mu, rule, sol.breakpoints, sol.layer)[0, 0] == p0[0]


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("b", [1e-10, 1e-14, 1e-160])
def test_jacobian_at_a_tiny_multiplier_scale_meets_its_limit(n, b):
    # P0 = int s^2 / R^3 tends to 2 c_n (1 - t*^2)^((n-3)/2) / g'(t*) as
    # s -> 0; on rounded latitudes it missed by 2e-6 at b = 1e-10 and by
    # 100% at 1e-160
    spec = ProblemSpec(n=n, m=2, r=0.5, a=np.array([0.3, 0.0]), b=b)
    sol = solve_positive_b(spec)
    assert sol.layer is not None and sol.layer.level == sol.lam[0]
    jac = jacobian_RI(spec, sol.lam, sol.mu, zonal_rule(n), sol.breakpoints, sol.layer)
    t_star = kernel_inverse(0.5, n, sol.lam[0])
    density = 2.0 * _zonal_constant(n) * (1.0 - t_star * t_star) ** (0.5 * (n - 3))
    slope = n * 0.5 * (1.25 - t_star) ** (-0.5 * n - 1.0)
    assert -jac[0, 0] == pytest.approx(density / slope, rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("r", [0.5, 0.99])
@pytest.mark.parametrize("a", [(-0.6,), (0.3,), (0.3, 0.0)])
def test_tiny_b_bounds_solve_and_meet_the_face_bound(n, r, a):
    # the layer's node count must grow as log(1 / b): at b = 1e-160 the
    # sinh map reaches tau ~ 370, past any fixed number of nodes
    spec = ProblemSpec(n=n, m=len(a), r=r, a=np.array(a), b=0.0)
    face = axis_bound(spec).value
    for b in (1e-30, 1e-80, 1e-160, 1e-250):
        result = axis_bound(ProblemSpec(n=n, m=len(a), r=r, a=np.array(a), b=b))
        assert result.witness.solution.layer is not None
        assert result.value == pytest.approx(face, abs=1e-13)


@pytest.mark.parametrize(
    "lam,mu", [([0.9, 0.3], 1.2), ([0.9, 0.3, math.nan], 1.2), ([[0.9, 0.3, 0.1]], 1.2), ([0.9, 0.3, 0.1], math.inf)]
)
def test_moments_and_jacobian_reject_a_malformed_lam_or_mu(lam, mu):
    # a 2-entry lam for m = 3 gave a 4x4 Jacobian with its one tail entry
    # broadcast into two slots, and moments of 2 components; mu = inf gave NaN
    spec = ProblemSpec(n=3, m=3, r=0.5, a=np.zeros(3), b=0.4)
    rule = zonal_rule(3)
    lam = np.array(lam)
    calls = [
        lambda: moments_RI(spec, lam, mu, rule),
        lambda: jacobian_RI(spec, lam, mu, rule),
        lambda: jacobian_fd_check(spec, lam, mu),
    ]
    if math.isfinite(mu):  # the b = 0 moments, at mu = 0
        calls.append(lambda: moments_RI(spec, lam, 0.0, rule))
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("r", [0.7, 0.97])
def test_moments_and_jacobian_match_the_reduced_dual_on_its_rule(r):
    # the full moments at the field of a reduced point (x, y) are the dual's
    # terms: R_1 = c1 - dq/dx, |(R_2..R_m, I)| = y J and -dR_1/dlam_1 = H_xx;
    # the last point's y is small enough for a turnover layer of its own
    spec = ProblemSpec(n=4, m=3, r=r, a=np.zeros(3), b=0.5)
    rule = zonal_rule(4)
    rng = np.random.default_rng(2718)
    x = kernel_profile(r, 4, np.append(rng.uniform(-0.9, 0.9, size=6), 0.3))
    y = x * np.append(rng.uniform(0.01, 2.0, size=6), 1e-12)
    c1 = rng.uniform(-0.5, 0.5, size=x.size)
    terms, rules = _dual_terms(spec, rule, c1, np.full(x.size, 0.4), x, y)
    assert rules[-1][1] is not None
    for k in range(x.size):
        direction = rng.normal(size=3)
        direction *= np.sign(direction[-1]) / np.linalg.norm(direction)
        lam, mu = np.append(x[k], -y[k] * direction[:2]), float(y[k] * direction[2])
        moved, mass = moments_RI(spec, lam, mu, rule, *rules[k])
        jac = jacobian_RI(spec, lam, mu, rule, *rules[k])
        t, w = segmented_nodes(rule, *rules[k])
        inv_r = _field_integrals([kernel_profile(r, 4, t)], [w], [rules[k][1]], x[k : k + 1], y[k : k + 1])[2][0]
        assert moved[0] == pytest.approx(c1[k] - terms[1, k], rel=1e-14)
        assert math.hypot(*moved[1:], mass) == pytest.approx(y[k] * inv_r, rel=1e-14)
        assert -jac[0, 0] == pytest.approx(terms[3, k], rel=1e-14)


def test_jacobian_diagonal_signs():
    rule = zonal_rule(3)
    spec = ProblemSpec(n=3, m=2, r=0.5, a=np.zeros(2), b=0.4)
    jac = jacobian_RI(spec, np.array([0.9, 0.3]), 1.2, rule)
    assert np.all(np.diag(jac)[:2] < 0)  # mean rows decrease in their own multiplier
    assert jac[2, 2] > 0  # mass increases with mu when the field is nonzero


def test_jacobian_entries_match_direct_quadrature():
    # mu * (entry) must equal the raw integral of the entry's profile
    spec = ProblemSpec(n=3, m=2, r=0.5, a=np.zeros(2), b=0.4)
    rule = zonal_rule(3)
    lam = np.array([0.7, -0.4])
    mu = 1.7
    jac = jacobian_RI(spec, lam, mu, rule)

    def field(t):
        g = kernel_profile(0.5, 3, t)
        a1 = (g - lam[0]) / mu
        a2 = np.full_like(a1, -lam[1] / mu)
        return a1, a2

    def entry_R11(t):
        a1, a2 = field(t)
        q = 1.0 + a1 * a1 + a2 * a2
        return -(q - a1 * a1) * q**-1.5

    def entry_Imu(t):
        a1, a2 = field(t)
        q = 1.0 + a1 * a1 + a2 * a2
        return (a1 * a1 + a2 * a2) * q**-1.5

    assert jac[0, 0] * mu == pytest.approx(zonal_integrate(rule, entry_R11), abs=1e-13)
    assert jac[2, 2] * mu == pytest.approx(zonal_integrate(rule, entry_Imu), abs=1e-13)


def test_mean_moment_decreases_in_first_multiplier():
    rule = zonal_rule(2)
    spec = ProblemSpec(n=2, m=1, r=0.4, a=np.zeros(1), b=0.3)
    rng = np.random.default_rng(3)
    for _ in range(10):
        lam1 = float(rng.uniform(-0.5, 1.5))
        mu = float(rng.uniform(0.3, 2.0))
        step = 1e-6
        up, _ = moments_RI(spec, np.array([lam1 + step]), mu, rule)
        down, _ = moments_RI(spec, np.array([lam1 - step]), mu, rule)
        assert up[0] < down[0]


def test_solve_positive_b_residual_and_tail_reduction():
    spec = ProblemSpec(n=3, m=3, r=0.55, a=np.array([0.25, -0.2, 0.1]), b=0.45)
    rule = zonal_rule(3)
    sol = solve_positive_b(spec, rule)
    assert sol.branch == "positive_b"
    assert sol.mu > 0
    assert sol.residual < 1e-10
    # tails are eliminated exactly, not iterated on
    np.testing.assert_array_equal(sol.lam[1:], (-spec.a[1:] / spec.b) * sol.mu)
    moved, mass = moments_RI(spec, sol.lam, sol.mu, rule)
    np.testing.assert_allclose(moved, spec.a, atol=1e-10)
    assert mass == pytest.approx(spec.b, abs=1e-10)


def test_solve_positive_b_near_ceiling():
    spec = ProblemSpec(n=2, m=1, r=0.5, a=np.zeros(1), b=0.95)
    sol = solve_positive_b(spec)
    assert sol.residual < 1e-10


def test_solve_positive_b_small_planar_case():
    spec = ProblemSpec(n=2, m=1, r=0.5, a=np.array([0.3]), b=0.4)
    sol = solve_positive_b(spec)
    moved, mass = moments_RI(spec, sol.lam, sol.mu, zonal_rule(2))
    assert moved[0] == pytest.approx(0.3, abs=1e-10)
    assert mass == pytest.approx(0.4, abs=1e-10)


def test_solve_positive_b_tail_permutation_symmetry():
    a = np.array([0.2, 0.3, -0.1])
    swapped = np.array([0.2, -0.1, 0.3])
    sol = solve_positive_b(ProblemSpec(n=3, m=3, r=0.5, a=a, b=0.4))
    sol_swapped = solve_positive_b(ProblemSpec(n=3, m=3, r=0.5, a=swapped, b=0.4))
    assert sol.lam[0] == pytest.approx(sol_swapped.lam[0], abs=1e-12)
    np.testing.assert_allclose(sol.lam[[2, 1]], sol_swapped.lam[1:], atol=1e-12)


def test_solve_positive_b_rejects_wrong_branch():
    spec = ProblemSpec(n=2, m=1, r=0.5, a=np.array([0.3]), b=0.0)
    with pytest.raises(ValueError):
        solve_positive_b(spec)


def test_moments_Rcal_saturated_plateaus():
    spec = ProblemSpec(n=3, m=1, r=0.4, a=np.array([0.2]), b=0.0)
    rule = zonal_rule(3)
    low = kernel_profile(0.4, 3, -1.0)
    high = kernel_profile(0.4, 3, 1.0)
    assert moments_RI(spec, np.array([low * 0.5]), 0.0, rule)[0][0] == pytest.approx(1.0, abs=1e-14)
    assert moments_RI(spec, np.array([high * 1.5]), 0.0, rule)[0][0] == pytest.approx(-1.0, abs=1e-14)


def test_moments_Rcal_median_latitude():
    spec = ProblemSpec(n=5, m=1, r=0.35, a=np.array([0.0]), b=0.0)
    lam_mid = kernel_profile(0.35, 5, 0.0)
    value, _ = moments_RI(spec, np.array([lam_mid]), 0.0, zonal_rule(5))
    assert value[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n,a1", [(2, 0.3), (3, -0.45), (4, 0.7), (5, 0.05)])
def test_solve_zero_b_jump_matches_beta_oracle(n, a1):
    spec = ProblemSpec(n=n, m=1, r=0.5, a=np.array([a1]), b=0.0)
    sol = solve_zero_b(spec)
    assert sol.branch == "zero_b"
    assert sol.mu is None
    assert sol.jump_point == pytest.approx(jump_latitude_oracle(n, a1), abs=1e-10)
    assert sol.residual < 1e-8


def test_solve_zero_b_centered_multiplier():
    spec = ProblemSpec(n=3, m=2, r=0.45, a=np.zeros(2), b=0.0)
    sol = solve_zero_b(spec)
    assert sol.lam[0] == pytest.approx((1 + 0.45**2) ** -1.5, abs=1e-10)
    np.testing.assert_allclose(sol.lam[1:], 0.0, atol=1e-12)


def test_solve_zero_b_nonzero_tail_residual():
    spec = ProblemSpec(n=3, m=2, r=0.4, a=np.array([0.2, 0.3]), b=0.0)
    sol = solve_zero_b(spec)
    moved, _ = moments_RI(spec, sol.lam, 0.0, zonal_rule(3))
    np.testing.assert_allclose(moved, spec.a, atol=1e-8)
    assert sol.jump_point is None


def test_solve_zero_b_tiny_tail_falls_through_to_the_graded_stages():
    # a 1e-5 tail bends the datum over a kink layer far below the plain
    # rule's resolution; the solve must resolve it on graded panels.  The
    # reference is the continuum dual minimized on polar-angle
    # Gauss-Legendre panels.
    spec = ProblemSpec(n=2, m=2, r=0.3306646056060621, a=np.array([0.510286145368913, -1e-05]), b=0.0)
    sol = solve_zero_b(spec)
    assert sol.residual < 1e-8
    assert sol.layer is not None and sol.breakpoints == (sol.layer.lo, sol.layer.hi)
    assert axis_bound(spec).value == pytest.approx(0.7442543621060742, abs=1e-10)


def test_solve_zero_b_boundary_adjacent_warning():
    # flat latitude density (n = 3) keeps the jump resolvable this close
    # to the pole; the point of the test is the conditioning flag
    spec = ProblemSpec(n=3, m=1, r=0.5, a=np.array([1.0 - 1e-9]), b=0.0)
    sol = solve_zero_b(spec)
    assert sol.warnings
    assert sol.jump_point == pytest.approx(-1.0 + 1e-9, abs=1e-11)
    spec_neg = ProblemSpec(n=3, m=1, r=0.5, a=np.array([-(1.0 - 1e-9)]), b=0.0)
    assert solve_zero_b(spec_neg).warnings


def test_positive_b_conditioning_warnings():
    thin = ProblemSpec(n=2, m=1, r=0.5, a=np.array([0.6]), b=0.8 - 1e-10)
    assert solve_positive_b(thin).warnings
    sliver = ProblemSpec(n=2, m=1, r=0.5, a=np.array([0.3]), b=1e-9)
    sol = solve_positive_b(sliver)
    assert sol.warnings
    assert sol.residual < 1e-10
    # the turnover layer had to get its own panel
    assert sol.layer is not None and sol.breakpoints == (sol.layer.lo, sol.layer.hi)


def test_small_b_solves_resolve_the_layer():
    # small b drives mu below the plain rule's resolution; the solve must
    # still meet the moment targets on its own graded partition
    for b in (1e-2, 1e-4, 1e-6):
        spec = ProblemSpec(n=3, m=2, r=0.6, a=np.array([0.25, -0.15]), b=b)
        sol = solve_positive_b(spec)
        assert sol.residual < 1e-10


@pytest.mark.parametrize("rho", [5e-324, 1e-310, 2.2e-308, 2.2250738585072014e-308])
@pytest.mark.parametrize("along", ["b", "tail"])
def test_subnormal_off_axis_parts_solve_on_the_face(rho, along):
    # 1 / R would overflow next to the crossing; the bound is the b = 0 one
    a = np.array([0.6, rho if along == "tail" else 0.0, 0.0])
    spec = ProblemSpec(n=6, m=3, r=0.9, a=a, b=rho if along == "b" else 0.0)
    result = axis_bound(spec)
    assert result.value == pytest.approx(0.9965528335175532, abs=1e-15)
    assert result.witness.solution.residual < 1e-10
    if along == "b":
        assert result.witness.solution.mu == rho


def test_solver_error_carries_residual(monkeypatch):
    spec = ProblemSpec(n=3, m=1, r=0.6, a=np.array([0.2]), b=0.3)
    monkeypatch.setattr(solver, "_POSITIVE_B_TOL", 1e-30)
    with pytest.raises(SolverError) as err:
        solve_positive_b(spec)
    assert err.value.residual > 0
    assert err.value.iterations > 0


@pytest.mark.parametrize(
    "n, m, r, a",
    [
        (3, 2, 0.5, (0.3, -0.1)),
        (16, 8, 0.6, (0.2, 0.1, -0.1, 0.05, 0.0, 0.1, -0.2, 0.1)),
        (2, 1, 0.999, (0.4,)),
    ],
    ids=["3-2", "16-8", "2-1"],
)
def test_mu_increases_with_b_up_to_its_ceiling(n, m, r, a):
    # the solved path's lemma: mu strictly increases with b, from b = 1e-12
    # to 1e-9 below the ceiling sqrt(1 - |a|^2)
    a = np.array(a)
    cap = math.sqrt(1.0 - a @ a)
    b = np.concatenate((np.geomspace(1e-12, 0.5 * cap, 12), cap - np.geomspace(0.5 * cap, 1e-9, 12)[1:]))
    mus = [sol.mu for sol in solve_batch([ProblemSpec(n, m, r, a, v) for v in b])]
    assert np.all(np.diff(mus) > 0.0)


# --------------------------------------------------------------------------
# an independent reduced dual: polar-angle Gauss-Legendre panels, no sphere.py
# --------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


def _polar_rule(edges, n):
    """Nodes theta and sigma-weights of Gauss-Legendre panels on [0, pi]."""
    edges = np.unique(np.clip(edges, 0.0, math.pi))
    lo, hi = edges[:-1, None], edges[1:, None]
    theta = (0.5 * (lo + hi) + 0.5 * (hi - lo) * _GL_X).ravel()
    cn = math.exp(math.lgamma(0.5 * n) - math.lgamma(0.5 * (n - 1))) / math.sqrt(math.pi)
    return theta, (0.5 * (hi - lo) * _GL_W).ravel() * cn * np.sin(theta) ** (n - 2)


def _poisson(n, r, theta):
    # (1 - r^2) / |r N - omega|^n, |r N - omega|^2 = (1 - r)^2 + 4 r sin^2(theta / 2)
    return (1.0 - r * r) * ((1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * theta) ** 2) ** (-0.5 * n)


def _graded(center, width):
    out, d = [center], width
    while d < 4.0:
        out += [center - d, center + d]
        d *= 3.0
    return out


def reduced_dual_min(n, r, c1, rho):
    """min over nu, s >= 0 of nu c1 - s rho + int sqrt((K - nu)^2 + s^2) dsigma.

    Panels are graded toward the pole at the scale 1 - r and around the
    crossing K = nu at the datum's layer width.  At rho = 0 the minimum
    is int K sign(theta* - theta) with the cap theta < theta* of mass
    (1 + c1) / 2; otherwise damped Newton runs from that face.
    """
    pole = _graded(0.0, (1.0 - r) / 16.0)
    lo, hi = 0.0, math.pi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        mass = _polar_rule(np.array([0.0, mid]), n)[1].sum()
        lo, hi = (mid, hi) if mass < 0.5 * (1.0 + c1) else (lo, mid)
    cap = 0.5 * (lo + hi)
    if rho == 0.0:
        theta, w = _polar_rule(np.array(pole + [cap, math.pi]), n)
        return float(w @ (_poisson(n, r, theta) * np.sign(cap - theta)))

    def terms(nu, s):
        edges = pole + [math.pi]
        base = ((1.0 - r * r) / nu) ** (2.0 / n)
        half = (base - (1.0 - r) ** 2) / (4.0 * r)
        if 0.0 < half < 1.0:
            crossing = 2.0 * math.asin(math.sqrt(half))
            slope = n * nu * r * math.sin(crossing) / base
            edges += _graded(crossing, max(s / slope / 8.0, 1e-15))
        theta, w = _polar_rule(np.array(edges), n)
        d = _poisson(n, r, theta) - nu
        big = np.hypot(d, s)
        grad = np.array([c1 - float(w @ (d / big)), float(w @ (s / big)) - rho])
        w3 = w / big**3
        h12 = float(w3 @ d) * s
        hess = np.array([[s * s * w3.sum(), h12], [h12, float(w3 @ (d * d))]])
        return nu * c1 - s * rho + float(w @ big), grad, hess

    nu = float(_poisson(n, r, cap))
    s = rho * nu
    q, grad, hess = terms(nu, s)
    for _ in range(200):
        step = np.linalg.solve(hess, -grad)
        dec = -float(grad @ step)
        if not dec > 1e-30 * abs(q):
            break
        alpha = min(1.0, 0.9 * s / -step[1]) if step[1] < 0.0 else 1.0
        for _ in range(40):
            cand = terms(nu + alpha * step[0], s + alpha * step[1])
            if cand[0] <= q - 1e-4 * alpha * dec or (
                alpha * dec < 1e-13 * abs(q) and np.abs(cand[1]).max() < np.abs(grad).max()
            ):
                break
            alpha *= 0.5
        else:
            break
        nu, s = nu + alpha * step[0], s + alpha * step[1]
        q, grad, hess = cand
    return q


def _edge_grid():
    """504 centers: n, m, r, b, norm of (a_2..a_m), a_1; m = 1 has no tail."""
    for n, m, r, b, tail, a1 in itertools.product(
        (2, 3, 8, 16), (1, 3, 8), (0.5, 0.99, 0.999), (0.0, 1e-9, 1e-3), (0.0, 1e-5, 0.1), (0.0, 0.6)
    ):
        if m > 1 or tail == 0.0:
            yield n, m, r, b, tail, a1


def test_edge_grid_matches_an_independent_reduced_dual():
    # every center where the b > 0 and b = 0 solves meet (b = 1e-9 with a
    # 1e-5 tail), plus a seeded sample of the rest of the grid
    grid = list(_edge_grid())
    meeting = [c for c in grid if c[3] == 1e-9 and c[4] == 1e-5]
    rest = [c for c in grid if c not in meeting]
    picks = np.random.default_rng(504).choice(len(rest), size=40, replace=False)
    bad = []
    for n, m, r, b, tail, a1 in meeting + [rest[i] for i in picks]:
        a = np.array([a1] + [tail / math.sqrt(max(m - 1, 1))] * (m - 1))
        expected = reduced_dual_min(n, r, a1, math.hypot(tail, b))
        try:
            value = axis_bound(ProblemSpec(n=n, m=m, r=r, a=a, b=b)).value
        except SolverError as exc:
            bad.append((n, m, r, b, tail, a1, str(exc)))
            continue
        if not abs(value - expected) < 1e-10:
            bad.append((n, m, r, b, tail, a1, value - expected))
    assert not bad


def test_layer_partition_ending_next_to_a_pole_keeps_off_it():
    # the layer at t* = 0.735 grades out to t* + 0.265, 3e-6 short of the
    # pole: a panel ending there misses the density's singularity (n = 2)
    # at any order, and the solve stalled or returned a bound 6e-9 off
    c1, rho = -0.5260410435335988, 2.9562979532567408e-09
    value = axis_bound(ProblemSpec(n=2, m=2, r=0.99, a=np.array([c1, 0.0]), b=rho)).value
    assert value == pytest.approx(reduced_dual_min(2, 0.99, c1, rho), abs=1e-10)


@pytest.mark.parametrize("a1", [-0.99999, -0.999, 0.999, 0.99999])
@pytest.mark.parametrize("b", [1e-5, 1e-9])
def test_layer_next_to_a_pole_grades_its_far_side(a1, b):
    # t* within 1e-3 of a pole: the layer panel ends half that distance
    # from it, and an ungraded panel on the far side missed the singular
    # weight of n = 2 there (SolverError, or bounds 6e-4 off)
    spec = ProblemSpec(n=2, m=2, r=0.5, a=np.array([a1, 0.0]), b=b)
    result = axis_bound(spec)
    assert result.witness.layer is not None
    assert result.value == pytest.approx(reduced_dual_min(2, 0.5, a1, b), abs=1e-10)


def test_face_crossing_next_to_a_pole_grades_the_far_panel():
    # t* lies 1.2e-7 from the pole +1: segmented at t* alone, the panel
    # [-1, t*] missed the singular weight of n = 2 just beyond its end and
    # the face solve stalled at residual 4.0e-4
    spec = ProblemSpec(n=2, m=2, r=0.6060684418185088, a=np.array([-0.9996886444013925, 0.0]), b=0.0)
    result = axis_bound(spec)
    sol = result.witness.solution
    assert sol.jump_point is not None and sol.residual < 1e-10
    assert max(result.residuals) < 1e-10
    assert result.value == pytest.approx(reduced_dual_min(2, spec.r, spec.a[0], 0.0), abs=1e-10)


def test_a_batch_needs_centers_that_share_n_and_r():
    specs = [ProblemSpec(n=3, m=1, r=r, a=np.array([0.2]), b=0.3) for r in (0.5, 0.6)]
    with pytest.raises(ValueError):
        solve_batch(specs)
    assert solve_batch([]) == []


def test_newton_steps_are_counted_apart_from_evaluations():
    spec = ProblemSpec(n=3, m=2, r=0.5, a=np.array([0.3, -0.2]), b=0.35)
    sol = solve_positive_b(spec)
    assert 0 < sol.newton_steps < sol.iterations
    assert sol.lam[0] == sol.dual_point[0]
    assert sol.dual_point[1] == pytest.approx(math.hypot(sol.mu, *sol.lam[1:]), rel=1e-15)
    face = solve_zero_b(ProblemSpec(n=2, m=1, r=0.5, a=np.array([0.3]), b=0.0))
    assert 0 < face.newton_steps <= face.iterations


def test_dual_near_r_1_sees_the_pole_of_the_kernel():
    # r > 0.95 with the crossing off the polar cap: the kernel's mass sits
    # within 1 - r of the pole, and on a partition that does not grade
    # toward it the dual converged to 0.67994
    a, b = np.array([-0.023537524836981353, -0.9748920586775901]), 0.22094841746991806
    e = np.array([-0.9932179793065812, -0.10640727956750134, -0.046856551699791284])
    spec = ProblemSpec(n=2, m=2, r=0.9987817340970558, a=a, b=b)
    result = directional_bound(spec, e)
    c = np.append(a, b)
    c1 = float(c @ e)
    rho = float(np.linalg.norm(c - c1 * e))
    assert result.value == pytest.approx(reduced_dual_min(2, spec.r, c1, rho), abs=1e-10)
    assert result.value == pytest.approx(0.49565106098170175, abs=1e-10)
    assert max(result.residuals) < 1e-10


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(2, 6),
    m=st.integers(2, 4),
    r=st.floats(0.1, 0.95),
    c1=st.floats(-0.8, 0.8),
    share=st.one_of(st.just(0.0), st.floats(5e-324, 0.95)),
    seed=st.integers(0, 2**32 - 1),
    on_face=st.booleans(),
)
def test_axis_bound_depends_on_the_center_only_through_c1_and_rho(
    n, m, r, c1, share, seed, on_face
):
    # rotating (a_2..a_m, b) with b >= 0 leaves c1 and rho alone; b = 0
    # (the degenerate solve) must agree with b > 0 as well, subnormal rho
    # included.
    rho = share * math.sqrt(1.0 - c1 * c1)
    rng = np.random.default_rng(seed)
    values = []
    for zero_b in (on_face, False):
        perp = rng.standard_normal(m)
        perp[-1] = 0.0 if zero_b else abs(perp[-1])
        perp *= rho / np.linalg.norm(perp)
        spec = ProblemSpec(n=n, m=m, r=r, a=np.concatenate(([c1], perp[:-1])), b=perp[-1])
        values.append(axis_bound(spec).value)
    assert values[0] == pytest.approx(values[1], abs=1e-10)
