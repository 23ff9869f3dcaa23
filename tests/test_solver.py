"""Multiplier solves: moment systems, Jacobian structure, both branches."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import betaincinv

from harmonic_schwarz import (
    ProblemSpec,
    SolverError,
    field_A,
    jacobian_RI,
    kernel_inverse,
    kernel_profile,
    lambda_path_point,
    moments_RI,
    moments_Rcal,
    solve_positive_b,
    solve_zero_b,
    zonal_integrate,
    zonal_rule,
)
from harmonic_schwarz.bounds import axis_bound
from harmonic_schwarz.solver import _BRENTQ_KW, _brentq


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


def test_field_A_components():
    spec = ProblemSpec(n=3, m=2, r=0.4, a=np.array([0.1, 0.1]), b=0.2)
    g_val = kernel_profile(0.4, 3, 0.3)
    out = field_A(spec, np.array([g_val, 1.0]), 2.0, 0.3)
    np.testing.assert_allclose(out, [0.0, -0.5], atol=1e-15)

    plain = field_A(spec, np.zeros(2), 1.0, 0.3)
    np.testing.assert_allclose(plain, [g_val, 0.0], atol=1e-15)
    np.testing.assert_allclose(field_A(spec, np.zeros(2), 4.0, 0.3), plain / 4.0, atol=1e-15)


def test_field_A_requires_positive_mu():
    spec = ProblemSpec(n=3, m=1, r=0.4, a=np.array([0.1]), b=0.2)
    with pytest.raises(ValueError):
        field_A(spec, np.zeros(1), 0.0, 0.0)


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


def test_solve_positive_b_unique_from_other_start():
    spec = ProblemSpec(n=4, m=2, r=0.6, a=np.array([0.2, 0.3]), b=0.35)
    base = solve_positive_b(spec)
    other = solve_positive_b(spec, x0=(float(base.lam[0]) + 2.5, base.mu * 7.0))
    assert abs(other.lam[0] - base.lam[0]) < 1e-9
    assert abs(other.mu - base.mu) < 1e-9


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
    assert moments_Rcal(spec, np.array([low * 0.5]), rule)[0] == pytest.approx(1.0, abs=1e-14)
    assert moments_Rcal(spec, np.array([high * 1.5]), rule)[0] == pytest.approx(-1.0, abs=1e-14)


def test_moments_Rcal_median_latitude():
    spec = ProblemSpec(n=5, m=1, r=0.35, a=np.array([0.0]), b=0.0)
    lam_mid = kernel_profile(0.35, 5, 0.0)
    value = moments_Rcal(spec, np.array([lam_mid]), zonal_rule(5))
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
    moved = moments_Rcal(spec, sol.lam, zonal_rule(3))
    np.testing.assert_allclose(moved, spec.a, atol=1e-8)
    assert sol.jump_point is None


def test_solve_zero_b_tiny_tail_falls_through_to_the_graded_stages():
    # with a 1e-5 tail the plain rule cannot bracket the tail field; the
    # graded re-anchoring must still run and solve it.  The reference is
    # the continuum dual minimized on polar-angle Gauss-Legendre panels.
    spec = ProblemSpec(n=2, m=2, r=0.3306646056060621, a=np.array([0.510286145368913, -1e-05]), b=0.0)
    sol = solve_zero_b(spec)
    assert sol.residual < 1e-8
    assert sol.breakpoints
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
    assert sol.breakpoints  # turnover layer had to be segmented


def test_small_b_solves_resolve_the_layer():
    # small b drives mu below the plain rule's resolution; the graded
    # re-solve must still meet the moment targets on its own partition
    for b in (1e-2, 1e-4, 1e-6):
        spec = ProblemSpec(n=3, m=2, r=0.6, a=np.array([0.25, -0.15]), b=b)
        sol = solve_positive_b(spec)
        assert sol.residual < 1e-10


def test_solver_error_carries_residual():
    spec = ProblemSpec(n=3, m=1, r=0.6, a=np.array([0.2]), b=0.3)
    with pytest.raises(SolverError) as err:
        solve_positive_b(spec, tol=1e-30)
    assert err.value.residual > 0
    assert err.value.iterations > 0


def test_mass_increases_along_solved_path():
    spec = ProblemSpec(n=3, m=2, r=0.5, a=np.array([0.3, -0.1]), b=0.4)
    masses = [lambda_path_point(spec, mu)[1] for mu in np.logspace(-2, 2, 7)]
    assert np.all(np.diff(masses) > 0)
    assert masses[-1] < np.sqrt(1.0 - 0.3**2 - 0.1**2)


def _bracketed_residuals(kind, count=200, seed=5):
    """Seeded increasing (f, lo, hi) with its root c strictly inside [lo, hi]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        c = float(rng.uniform(-1.0, 1.0))
        lo, hi = c - float(rng.uniform(0.05, 3.0)), c + float(rng.uniform(0.05, 3.0))
        if kind == "smooth":
            shift = c + 0.5 * math.sin(c)
            yield (lambda x, s=shift: x + 0.5 * math.sin(x) - s), lo, hi
        elif kind == "tanh":
            steep = 10.0 ** float(rng.uniform(0.0, 6.0))
            yield (lambda x, c=c, k=steep: math.tanh(k * (x - c))), lo, hi
        else:
            p = float(rng.uniform(0.2, 5.0))
            yield (lambda x, c=c, p=p: math.copysign(abs(x - c) ** p, x - c)), lo, hi


@pytest.mark.parametrize("kind", ["smooth", "tanh", "power"])
@pytest.mark.parametrize("kw", [_BRENTQ_KW, {}], ids=["solver_kw", "defaults"])
def test_brentq_port_is_bit_identical_to_scipy(kind, kw):
    for f, lo, hi in _bracketed_residuals(kind):
        try:
            expected = brentq(f, lo, hi, **kw)
        except RuntimeError:  # scipy ran out of maxiter: so must the port
            with pytest.raises(SolverError):
                _brentq(f, lo, hi, **kw)
        else:
            assert _brentq(f, lo, hi, **kw) == expected


def test_brentq_port_raises_solver_error():
    with pytest.raises(SolverError):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0)  # no sign change
    with pytest.raises(SolverError):
        _brentq(lambda x: math.tanh(1e6 * (x - 0.3)), 0.0, 1.0, **{**_BRENTQ_KW, "maxiter": 3})
    with pytest.raises(SolverError):
        _brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0)
