"""Quadrature layer: zonal and biaxial reductions, Poisson kernel."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmonic_schwarz import (
    QuadratureError,
    biaxial_rule,
    poisson_kernel,
    sample_sphere,
    zonal_integrate,
    zonal_rule,
)
from harmonic_schwarz import sphere
from harmonic_schwarz.solver import ProblemSpec, _axis_cap_breakpoints, _layer_crossings, _layer_rule, kernel_profile
from harmonic_schwarz.sphere import (
    _base_jacobi,
    _gauss_jacobi,
    _segment_rule,
    _zonal_constant,
    segmented_nodes,
    segmented_pairs,
)


def symbolic_even_moment(n: int, k: int) -> float:
    # E[t^(2k)] on S^(n-1): product of (2i-1)/(n+2i-2) for i = 1..k
    value = 1.0
    for i in range(1, k + 1):
        value *= (2 * i - 1) / (n + 2 * i - 2)
    return value


def jacobi_moments(alpha, beta, count):
    """int_{-1}^{1} x^k (1-x)^alpha (1+x)^beta dx for k < count.

    Integrating d/dx [x^k (1-x)^(alpha+1) (1+x)^(beta+1)] over [-1, 1] gives
    (k + alpha + beta + 2) m_{k+1} = k m_{k-1} + (beta - alpha) m_k.
    """
    mass = math.exp(
        (alpha + beta + 1.0) * math.log(2.0)
        + math.lgamma(alpha + 1.0)
        + math.lgamma(beta + 1.0)
        - math.lgamma(alpha + beta + 2.0)
    )
    m = [mass, (beta - alpha) * mass / (alpha + beta + 2.0)]
    for k in range(1, count - 1):
        m.append((k * m[k - 1] + (beta - alpha) * m[k]) / (k + alpha + beta + 2.0))
    return m[:count]


# every weight a latitude rule uses: zonal (p, p) for n = 2..16, the one-sided
# endpoint segments (p, 0) and (0, p), and Legendre (0, 0) for interior segments
JACOBI_WEIGHTS = sorted(
    {(0.5 * (n - 3), 0.5 * (n - 3)) for n in range(2, 17)}
    | {(0.5 * (n - 3), 0.0) for n in range(2, 17)}
    | {(0.0, 0.5 * (n - 3)) for n in range(2, 17)}
)


@pytest.mark.parametrize("alpha,beta", JACOBI_WEIGHTS)
def test_gauss_jacobi_rules(alpha, beta):
    for order in (1, 2, 3, 8, 64, 512):
        x, w = _base_jacobi(order, alpha, beta)
        assert x.shape == w.shape == (order,)
        assert np.all(np.diff(x) > 0.0) and -1.0 < x[0] and x[-1] < 1.0
        assert np.all(w > 0.0)
        moments = jacobi_moments(alpha, beta, 2 * min(order, 8))
        assert w.sum() == pytest.approx(moments[0], rel=1e-14)
        if order <= 8:
            for k in range(1, 2 * order):
                assert w @ x**k == pytest.approx(moments[k], rel=1e-13, abs=1e-14 * moments[0])


@pytest.mark.parametrize("alpha", [-0.5, 0.5])
def test_newton_rule_matches_chebyshev_closed_forms(alpha):
    # _base_jacobi takes these two weights from their closed forms
    x, w = _gauss_jacobi(512, alpha, alpha)
    x_ref, w_ref = _base_jacobi(512, alpha, alpha)
    np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(w, w_ref, rtol=1e-11)


def test_rule_table_is_the_builders_output():
    # every shipped rule, bit for bit
    data = np.fromfile(sphere._TABLE_PATH, dtype="<f8")
    assert data.size == sum(2 * k[0] for k in sphere._TABLE_KEYS)
    assert len(sphere._TABLE_OFFSETS) == len(sphere._TABLE_KEYS) == 50
    for key, start in sphere._TABLE_OFFSETS.items():
        order = key[0]
        x, w = _gauss_jacobi(*key)
        stale = f"rule {key} differs from the table written with numpy 2.4.6: run `python tools/rule_table.py`"
        assert np.array_equal(data[start : start + order], x), stale
        assert np.array_equal(data[start + order : start + 2 * order], w), stale


def _no_build(*key):
    raise AssertionError(f"rule {key} was built, not read from the table")


def test_table_keys_are_read_and_other_keys_built(monkeypatch):
    build = _base_jacobi.__wrapped__  # past the in-process cache
    expected = {key: _gauss_jacobi(*key) for key in [(100, 1.0, 1.0), (512, 2.0, 2.0)]}
    monkeypatch.setattr(sphere, "_gauss_jacobi", _no_build)
    for key in [(512, 6.5, 6.5), (16, 0.0, 0.0), (2048, 6.5, 6.5), (64, 0.0, 0.5)]:
        x, w = build(*key)
        assert x.shape == w.shape == (key[0],)
    for key in expected:  # an order, and a dimension (n = 7), outside the table
        with pytest.raises(AssertionError, match="was built"):
            build(*key)
    monkeypatch.undo()
    for key, (x_ref, w_ref) in expected.items():
        x, w = build(*key)
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 11])
def test_rule_basic_invariants(n):
    rule = zonal_rule(n)
    assert abs(rule.weights.sum() - 1.0) < 1e-12
    assert abs(zonal_integrate(rule, lambda t: t)) < 1e-12
    assert abs(zonal_integrate(rule, lambda t: t * t) - 1.0 / n) < 1e-10
    assert np.all(rule.weights > 0)
    assert np.all((rule.nodes > -1.0) & (rule.nodes < 1.0))


def test_constant_profile_integrates_to_one():
    assert zonal_integrate(zonal_rule(3), lambda t: np.ones_like(t)) == pytest.approx(1.0, abs=1e-14)


def test_hemisphere_indicator_with_breakpoint():
    rule = zonal_rule(4)
    value = zonal_integrate(rule, lambda t: (t > 0).astype(float), breakpoints=[0.0])
    assert value == pytest.approx(0.5, abs=1e-13)


def test_kernel_profile_normalization_n3():
    # independent of the package kernel helper on purpose
    rule = zonal_rule(3)
    value = zonal_integrate(rule, lambda t: (1.25 - t) ** -1.5)
    assert value == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_kernel_normalization_against_trapezoid_oracle():
    # fine-grid trapezoid on the weighted 1D reduction, n = 5, r = 0.6
    n, r = 5, 0.6
    t = np.linspace(-1.0, 1.0, 400001)
    weight = (1.0 - t * t) ** ((n - 3) / 2)
    from math import gamma, pi, sqrt

    c_n = gamma(n / 2) / (sqrt(pi) * gamma((n - 1) / 2))
    kern = (1.0 + r * r - 2.0 * r * t) ** (-n / 2)
    oracle = c_n * np.trapezoid(kern * weight, t)
    quad = zonal_integrate(zonal_rule(n), lambda s: (1.0 + r * r - 2.0 * r * s) ** (-n / 2))
    assert quad == pytest.approx(oracle, rel=1e-9)
    assert quad * (1.0 - r * r) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n,order", [(2, 6), (3, 5), (5, 8)])
def test_exactness_to_degree_2q_minus_1(n, order):
    rule = zonal_rule(n, order)
    for k in range(0, order):  # t^(2k) has degree 2k <= 2*order - 2
        got = zonal_integrate(rule, lambda t, k=k: t ** (2 * k))
        assert got == pytest.approx(symbolic_even_moment(n, k), abs=1e-12)
    # odd powers vanish by symmetry of the weight
    assert abs(zonal_integrate(rule, lambda t: t ** (2 * order - 1))) < 1e-12


def test_breakpoint_pieces_recover_smooth_integral():
    rule = zonal_rule(3, 64)
    plain = zonal_integrate(rule, np.cos)
    split = zonal_integrate(rule, np.cos, breakpoints=[-0.4, 0.1, 0.7])
    assert split == pytest.approx(plain, abs=1e-13)


def full_order_panels(rule, breakpoints):
    """Every panel at the rule's own order, one panel at a time."""
    edges = [-1.0, *breakpoints, 1.0]
    parts = [_segment_rule(rule.n, rule.order, lo, hi) for lo, hi in zip(edges, edges[1:])]
    return np.concatenate([t for t, _ in parts]), np.concatenate([w for _, w in parts])


def test_wide_panels_keep_the_full_order_bit_for_bit():
    # four interior panels of one order take the broadcast path
    rule = zonal_rule(5)
    breaks = (-0.6, -0.2, 0.1, 0.5, 0.7)
    t, w = segmented_nodes(rule, breaks)
    t_ref, w_ref = full_order_panels(rule, breaks)
    assert np.array_equal(t, t_ref)
    assert np.array_equal(w, w_ref)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_broadcast_maps_mixed_orders_as_panel_by_panel(n):
    # five interior panels, wide and narrow interleaved, in one broadcast
    rule = zonal_rule(n)
    breaks = (-0.6, -0.2, -0.19, 0.1, 0.12, 0.5)
    edges = [-1.0, *breaks, 1.0]
    orders = [512, 512, 64, 512, 64, 512, 512]
    parts = [_segment_rule(n, k, lo, hi) for lo, hi, k in zip(edges, edges[1:], orders)]
    t, w = segmented_nodes(rule, breaks)
    assert np.array_equal(t, np.concatenate([t for t, _ in parts]))
    assert np.array_equal(w, np.concatenate([w for _, w in parts]))


@pytest.mark.parametrize("n", [2, 4])
def test_narrow_panels_next_to_a_pole_keep_the_full_order(n):
    # (0.966, 0.99994) is 6e-5 from t = 1, where the weight of even n is
    # singular: at order 64 its weights lost 3e-5 of the mass
    breaks = (0.932, 0.966, 0.99994)
    rule = zonal_rule(n)
    assert segmented_nodes(rule, breaks)[1].sum() == pytest.approx(1.0, abs=1e-13)
    smooth = zonal_integrate(rule, np.cos)
    assert zonal_integrate(rule, np.cos, breakpoints=breaks) == pytest.approx(smooth, abs=1e-13)


@pytest.mark.parametrize("n", [2, 3, 16])
@pytest.mark.parametrize("s", [1e-6, 1e-9, 1e-14, 1e-160])
def test_layer_panel_integrates_the_turnover_in_closed_form(n, s):
    # the solver's turnover layer at t* = 0.3, r = 0.5, spliced into the rule
    spec = ProblemSpec(n=n, m=1, r=0.5, a=np.array([0.0]), b=0.0)
    x = kernel_profile(0.5, n, 0.3)
    breaks, layer = _layer_rule(spec, x, s, float(_layer_crossings(spec, np.array([x]), np.array([s]))[0]))
    assert breaks == (layer.lo, layer.hi) == pytest.approx((-0.05, 0.65), abs=1e-15)
    rule = zonal_rule(n, 512)
    t, w = segmented_nodes(rule, breaks, layer)
    k = layer.nodes.size
    assert k <= (4000 if s == 1e-160 else 400)  # grows as log(1 / s)
    assert np.array_equal(t[-k:], layer.nodes) and np.array_equal(w[-k:], layer.weights)
    assert np.all((t[:-k] < layer.lo) | (t[:-k] > layer.hi)) and np.all(np.diff(t[:-k]) > 0.0)
    assert np.all((layer.nodes > layer.lo) & (layer.nodes < layer.hi))
    assert np.all(np.diff(layer.nodes) >= 0.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-13)
    # the half-order rule stays distinct on the two wide outer panels
    assert segmented_nodes(zonal_rule(n, 256), breaks, layer)[0].size == t.size - 512
    # in the level offset d = g - x the layer integrals have closed forms
    d = layer.offsets
    big_r = np.hypot(d, s)
    np.testing.assert_allclose(d, kernel_profile(0.5, n, layer.nodes) - x, rtol=1e-14, atol=1e-12)
    per_d = layer.weights * n * 0.5 * (1.25 - layer.nodes) ** (-0.5 * n - 1.0)
    per_d /= _zonal_constant(n) * (1.0 - layer.nodes**2) ** (0.5 * (n - 3))
    ends = np.array([kernel_profile(0.5, n, layer.lo), kernel_profile(0.5, n, layer.hi)]) - x
    assert per_d @ (s / big_r) == pytest.approx(s * np.diff(np.arcsinh(ends / s))[0], rel=1e-13)
    assert per_d @ ((s / big_r) ** 2 / big_r) == pytest.approx(np.diff(ends / np.hypot(ends, s))[0], rel=1e-13)
    # and on the whole rule int s^2 / R^3 tends to 2 c_n (1 - t*^2)^((n-3)/2) / g'(t*)
    full_d = kernel_profile(0.5, n, t) - x
    full_d[-k:] = d
    big_r = np.hypot(full_d, s)
    p0 = float(w @ ((s / big_r) ** 2 / big_r))
    limit = 2.0 * _zonal_constant(n) * 0.91 ** (0.5 * (n - 3)) / (n * 0.5 * 0.95 ** (-0.5 * n - 1.0))
    assert p0 == pytest.approx(limit, rel=1e-9 if s == 1e-6 else 1e-13)


@pytest.mark.parametrize("offset", [1e-3, 1e-9])
@pytest.mark.parametrize("eps", [1e-4, 1e-7])
def test_layer_next_to_a_cap_breakpoint_keeps_its_full_panel(offset, eps):
    # r > 0.95: the layer panel covers cap breakpoints, which the log-level
    # map does not need; a panel cut at the nearest one left a layer
    # 1e-9 from its edge, and its moments 5e-7 off
    from scipy.integrate import quad

    r = 0.99
    spec = ProblemSpec(n=2, m=1, r=r, a=np.array([0.0]), b=0.1)
    cap = _axis_cap_breakpoints(r)
    t_star = cap[1] + offset
    x = kernel_profile(r, 2, t_star)
    s = eps * 2 * r * kernel_profile(r, 2, t_star) ** 2  # eps g'(t*)
    breaks, layer = _layer_rule(spec, x, s, float(_layer_crossings(spec, np.array([x]), np.array([s]))[0]))
    assert layer.hi - t_star == pytest.approx(0.5 * (1.0 - t_star))
    assert not any(layer.lo < c < layer.hi for c in breaks)
    t, w = segmented_nodes(zonal_rule(2), breaks, layer)
    d = kernel_profile(r, 2, t) - x
    d[-layer.nodes.size :] = layer.offsets
    theta = math.acos(t_star)
    edges = sorted({theta + k * eps for k in (-100, -10, -1, 0, 1, 10, 100)} | {math.acos(c) for c in cap})
    edges = [0.0, *edges, math.pi]

    def reference(f):  # t = cos(theta) takes the weight (1 - t^2)^(-1/2) / pi
        g = lambda a: f(kernel_profile(r, 2, math.cos(a)) - x) / math.pi
        return sum(quad(g, a0, a1, epsabs=1e-15, epsrel=1e-13, limit=200)[0] for a0, a1 in zip(edges, edges[1:]))

    assert w @ (d / np.hypot(d, s)) == pytest.approx(reference(lambda e: e / math.hypot(e, s)), abs=1e-13)
    assert w @ (s / np.hypot(d, s)) == pytest.approx(reference(lambda e: s / math.hypot(e, s)), abs=1e-13)


def test_a_spliced_panel_replaces_the_panels_it_covers():
    # breakpoints inside the caller's panel give way to its edges
    rule = zonal_rule(4)
    lo, hi = -0.2, 0.3
    pt, pw = _segment_rule(4, 40, lo, hi)
    panel = types.SimpleNamespace(lo=lo, hi=hi, nodes=pt, weights=pw)
    t, w = segmented_nodes(rule, (-0.6, -0.2, 0.1, 0.3 + 1e-15, 0.5), panel)
    edges = [-1.0, -0.6, lo, hi, 0.5, 1.0]
    parts = [_segment_rule(4, 512, e0, e1) for e0, e1 in zip(edges, edges[1:]) if e0 != lo]
    assert np.array_equal(t, np.concatenate([p[0] for p in parts] + [pt]))
    assert np.array_equal(w, np.concatenate([p[1] for p in parts] + [pw]))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_segmented_pairs_match_the_unsegmented_biaxial_rule(n):
    # the t1 rule comes from segmented_nodes; on the circle each node
    # gives the two points (t1, +-sqrt(1 - t1^2)) at half weight
    rule = biaxial_rule(n, 128)  # inner order 64
    t1, t2, w = segmented_pairs(rule, (-0.4, 0.2))
    outer = segmented_nodes(zonal_rule(n, 128), (-0.4, 0.2))[0]
    assert t1.size == outer.size * (2 if n == 2 else 64)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    if n == 2:
        np.testing.assert_allclose(t1 * t1 + t2 * t2, 1.0, atol=1e-15)
    profile = lambda a, b: np.exp(0.7 * a - 0.4 * b) + a * b * b
    p1, p2, pw = segmented_pairs(rule)
    assert w @ profile(t1, t2) == pytest.approx(pw @ profile(p1, p2), abs=1e-14)


def test_non_finite_profile_reports_node():
    rule = zonal_rule(3)

    def profile(t):
        out = np.ones_like(t)
        out[np.isclose(t, rule.nodes[5])] = np.inf
        return out

    with pytest.raises(QuadratureError) as err:
        zonal_integrate(rule, profile)
    assert "node" in str(err.value)


def test_poisson_kernel_center_and_planar_values():
    omega = np.array([1.0, 0.0])
    assert poisson_kernel(np.zeros(2), omega, 2) == pytest.approx(1.0)
    # n = 2 along the axis toward omega: (1+r)/(1-r)
    assert poisson_kernel(np.array([0.5, 0.0]), omega, 2) == pytest.approx(3.0, abs=1e-14)


def test_poisson_kernel_rejects_exterior_points():
    with pytest.raises(ValueError):
        poisson_kernel(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 2)


@pytest.mark.parametrize("seed", range(4))
def test_poisson_normalization_random_dims(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    r = float(rng.uniform(0.05, 0.9))
    value = zonal_integrate(
        zonal_rule(n), lambda t: (1.0 + r * r - 2.0 * r * t) ** (-n / 2)
    )
    assert value * (1.0 - r * r) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_biaxial_constants_and_odd_terms(n):
    t1, t2, w = segmented_pairs(biaxial_rule(n))
    assert w @ np.ones_like(t1) == pytest.approx(1.0, abs=1e-10)
    assert abs(w @ t1) < 1e-10
    assert abs(w @ (t1 * t2)) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_biaxial_matches_zonal_on_t1_profiles(n):
    t1, _, w = segmented_pairs(biaxial_rule(n))
    assert w @ (t1 * t1) == pytest.approx(1.0 / n, abs=1e-10)


def test_sample_sphere_determinism_and_norms():
    first = sample_sphere(3, 1, 7)
    again = sample_sphere(3, 1, 7)
    np.testing.assert_array_equal(first, again)
    assert abs(np.linalg.norm(first[0]) - 1.0) < 1e-14

    big = sample_sphere(4, 100_000, 11)
    np.testing.assert_allclose(np.linalg.norm(big, axis=1), 1.0, atol=1e-14)
    assert abs(big[:, -1].mean()) < 3e-2
    assert abs((big[:, -1] > 0).mean() - 0.5) < 1e-2


def test_sample_sphere_rejects_low_dimension():
    with pytest.raises(ValueError):
        sample_sphere(1, 10, 0)


def test_monte_carlo_agrees_with_quadrature():
    n, r = 3, 0.4
    samples = sample_sphere(n, 200_000, 5)
    values = (1.0 + r * r - 2.0 * r * samples[:, -1]) ** (-n / 2)
    mc = values.mean()
    se = values.std(ddof=1) / np.sqrt(values.size)
    quad = zonal_integrate(zonal_rule(n), lambda t: (1.0 + r * r - 2.0 * r * t) ** (-n / 2))
    assert abs(mc - quad) < 3.0 * se


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_even_moments_match_symbolic_formula(n, k):
    got = zonal_integrate(zonal_rule(n), lambda t, k=k: t ** (2 * k))
    assert got == pytest.approx(symbolic_even_moment(n, k), abs=1e-11)
