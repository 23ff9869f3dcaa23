"""Directional growth bounds, the classical centered bound, envelopes."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmonic_schwarz import ProblemSpec, SolverError, eval_on_axis, solver
from harmonic_schwarz.bounds import (
    _rotated,
    axis_bound,
    classical_bound,
    direction_family,
    directional_bound,
    envelope_to_json,
    region_envelope,
)
from harmonic_schwarz.mapping import _on_axis, boundary_map, boundary_maps, constant_map
from harmonic_schwarz.solver import datum


def three_dim_classical(r: float) -> float:
    return (1.0 / r) * (1.0 - (1.0 - r * r) / np.sqrt(1.0 + r * r))


@pytest.mark.parametrize("r", [0.3, 0.6, 0.9])
def test_axis_bound_matches_planar_closed_form(r):
    spec = ProblemSpec(n=2, m=1, r=r, a=np.zeros(1), b=0.0)
    assert axis_bound(spec).value == pytest.approx((4.0 / np.pi) * np.arctan(r), abs=1e-10)


def test_axis_bound_carries_its_witness():
    spec = ProblemSpec(n=3, m=1, r=0.5, a=np.array([0.3]), b=0.4)
    result = axis_bound(spec)
    np.testing.assert_array_equal(result.direction, [1.0, 0.0])
    assert result.witness.branch == "positive_b"
    assert max(result.residuals) < 1e-10
    assert 0.3 < result.value < 1.0  # strictly above the center, inside the ball


def test_bounds_carry_the_quadrature_error_estimate_of_their_axis_value():
    spec = ProblemSpec(n=3, m=2, r=0.5, a=np.array([0.25, -0.1]), b=0.35)
    result = axis_bound(spec)
    edge = eval_on_axis(result.witness, spec.r)
    assert result.quadrature_error_estimate == edge.quadrature_error_estimate
    assert 0.0 <= result.quadrature_error_estimate < 1e-12
    e = np.array([0.6, -0.48, 0.64])
    rotated = directional_bound(spec, e)
    edge = eval_on_axis(rotated.witness, spec.r)
    assert rotated.value == float(edge.value[0])
    assert rotated.quadrature_error_estimate == edge.quadrature_error_estimate


def test_directional_bound_along_first_axis_is_the_axis_bound():
    spec = ProblemSpec(n=3, m=1, r=0.5, a=np.array([0.3]), b=0.4)
    e0 = np.array([1.0, 0.0])
    assert directional_bound(spec, e0).value == axis_bound(spec).value


def test_directional_bound_dominates_the_center_projection():
    spec = ProblemSpec(n=3, m=2, r=0.5, a=np.array([0.3, -0.2]), b=0.35)
    center = np.array([0.3, -0.2, 0.35])
    rng = np.random.default_rng(7)
    for _ in range(10):
        e = rng.standard_normal(3)
        e /= np.linalg.norm(e)
        assert directional_bound(spec, e).value >= center @ e - 1e-10


def test_opposite_directions_bracket_a_positive_width_slab():
    spec = ProblemSpec(n=3, m=1, r=0.5, a=np.array([0.3]), b=0.4)
    e0 = np.array([1.0, 0.0])
    forward = directional_bound(spec, e0).value
    backward = directional_bound(spec, -e0).value
    assert forward >= 0.3 - 1e-12
    assert backward >= -0.3 - 1e-12  # sup of -F_1 is at least -a_1
    assert forward + backward > 0.1  # the image has positive extent


def test_origin_bounds_are_direction_free():
    spec = ProblemSpec(n=2, m=1, r=0.5, a=np.zeros(1), b=0.0)
    dirs, _ = direction_family(2, 20, scheme="random", seed=11)
    values = np.array([directional_bound(spec, e).value for e in dirs])
    assert np.ptp(values) < 1e-9
    np.testing.assert_allclose(values, classical_bound(2, 0.5), atol=1e-9)


@pytest.mark.parametrize("r", [0.2, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-8, 1.0 - 1e-10])
def test_classical_bound_planar_values(r):
    # near r = 1 the kernel's mass sits within (1 - r)^2 of the pole, where
    # rounded nodes would miss it by ~1e-16 / (1 - r)^2
    assert classical_bound(2, r) == pytest.approx((4.0 / np.pi) * np.arctan(r), abs=1e-13)


@pytest.mark.parametrize("r", [0.1, 0.3, 0.7, 0.999, 0.9999])
def test_classical_bound_three_dim_closed_form(r):
    # U_3(r), measured to 1.3e-15
    assert classical_bound(3, r) == pytest.approx(three_dim_classical(r), abs=1e-13)


def rho_zero_face(n: int, r: float, a1: float) -> float:
    """The sharp bound at center (a1, 0, .., 0) with b = 0, where the datum
    is sign(t - t*): Chen's planar form for n = 2, and for n = 3 (t* = -a1)
    the integral of the Poisson kernel over a cap."""
    if n == 2:
        return (4.0 / np.pi) * np.arctan((1.0 + r) / (1.0 - r) * np.tan(np.pi * (1.0 + a1) / 4.0)) - 1.0
    return 1.0 - (1.0 - r * r) / r * ((1.0 + r * r + 2.0 * r * a1) ** -0.5 - 1.0 / (1.0 + r))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [1, 3])
def test_axis_bound_on_the_rho_zero_face_matches_its_closed_form(n, m):
    # measured to 1.9e-14 (n = 2) and 1.6e-15 (n = 3)
    for r in (0.1, 0.5, 0.9, 0.99, 1.0 - 1e-4, 1.0 - 1e-6):
        for a1 in (-0.99, -0.5, 0.0, 0.3, 0.9, 0.99):
            spec = ProblemSpec(n=n, m=m, r=r, a=np.r_[a1, np.zeros(m - 1)], b=0.0)
            assert axis_bound(spec).value == pytest.approx(rho_zero_face(n, r, a1), abs=1e-13), (r, a1)


def test_every_envelope_value_obeys_the_schwarz_inequality():
    # |F(x) - k_n(r) F(0)| <= U_n(r) with k_n(r) = (1 - r^2) / (1 + r^2)^(n/2),
    # the kernel on the equator <omega, x> = 0, and U_n = classical_bound:
    # h(e) <= k_n(r) <c, e> + U_n(r) in every direction e, sharp as c -> 0,
    # so only a rounding allowance is granted: the least slack of this draw
    # is 4.4e-16, at r = 1 - 1.2e-6 and |c| = 1.1e-4
    rng = np.random.default_rng(20130)
    least = np.inf
    for k in range(48):
        n, m = int(rng.choice([2, 3, 4, 5, 8, 16])), int(rng.integers(1, 9))
        r = 1.0 - 10.0 ** rng.uniform(-6.0, -0.01)
        c = rng.normal(size=m + 1)
        if k % 3 == 0:
            c[-1] = 0.0
        c *= 10.0 ** rng.uniform(-4.0, math.log10(0.95)) / np.linalg.norm(c)
        env = region_envelope(ProblemSpec(n, m, r, c[:-1], c[-1]), count=8, scheme="random", seed=k)
        k_n = (1.0 - r * r) / (1.0 + r * r) ** (0.5 * n)
        slack = k_n * (env.directions @ c) + classical_bound(n, r) - env.values
        least = min(least, float(slack.min()))
    assert least >= -1e-13


def test_classical_bound_limits_and_monotonicity():
    assert classical_bound(3, 0.999) > 0.97  # saturates toward 1
    assert 0.0 < classical_bound(3, 1e-3) < 5e-3  # collapses at the center
    radii = np.concatenate([np.linspace(0.05, 0.95, 10), [0.99, 0.999]])
    for n in (2, 3, 5):
        values = [classical_bound(n, r) for r in radii]
        assert np.all(np.diff(values) > 0)


@pytest.mark.parametrize("n", [27, 40, 64])
@pytest.mark.parametrize("r", [0.5, 0.9])
def test_classical_bound_in_high_dimension_matches_direct_quadrature(n, r):
    # the Gauss-Jacobi rules of n >= 27 start Newton from the Jacobi
    # matrix's eigenvalues; from Gatteschi's start they failed to separate
    from scipy.integrate import quad

    c_n = math.exp(math.lgamma(0.5 * n) - math.lgamma(0.5 * (n - 1))) / math.sqrt(math.pi)
    lower = lambda t: (1 + r * r - 2 * r * t) ** (-0.5 * n) * c_n * (1 - t * t) ** (0.5 * (n - 3))
    mass = quad(lower, -1.0, 0.0, epsabs=1e-16, epsrel=1e-14, limit=200)[0]
    assert classical_bound(n, r) == pytest.approx(1.0 - 2.0 * (1.0 - r * r) * mass, abs=1e-12)


def test_classical_bound_validation():
    with pytest.raises(ValueError):
        classical_bound(1, 0.5)
    with pytest.raises(ValueError):
        classical_bound(3, 0.0)
    with pytest.raises(ValueError):
        classical_bound(3, 1.0)
    for n in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="must be an integer"):
            classical_bound(n, 0.5)
    assert classical_bound(np.int64(3), 0.5) == classical_bound(3, 0.5)


def test_origin_envelope_is_a_circle():
    spec = ProblemSpec(n=2, m=1, r=0.5, a=np.zeros(1), b=0.0)
    env = region_envelope(spec, count=360)
    assert env.scheme == "grid"
    assert env.count == 360
    assert np.ptp(env.values) < 1e-9
    np.testing.assert_allclose(env.values, classical_bound(2, 0.5), atol=1e-9)


def test_envelope_contains_the_center_value():
    spec = ProblemSpec(n=3, m=2, r=0.5, a=np.array([0.3, -0.2]), b=0.35)
    env = region_envelope(spec, count=12, scheme="random", seed=5)
    gaps = env.support_gaps(np.array([[0.3, -0.2, 0.35]]))
    assert gaps.shape == (1, 12)
    assert gaps.min() > 0.0


def test_envelope_explicit_directions():
    spec = ProblemSpec(n=3, m=1, r=0.4, a=np.array([0.2]), b=0.3)
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    env = region_envelope(spec, directions=dirs)
    assert env.scheme == "explicit"
    for e, h in zip(dirs, env.values):
        assert h == directional_bound(spec, e).value


def _unit_rows(rng, count, dim):
    out = rng.standard_normal((count, dim))
    return out / np.linalg.norm(out, axis=1)[:, None]


def _batch_family(kind):
    """(spec, directions) whose solves take one path of the batched minimizer."""
    seeds = {"plain": 11, "layered": 12, "cap": 13, "zero_b": 14, "negative_b": 15}
    rng = np.random.default_rng(seeds.get(kind, 0))
    if kind == "plain":
        spec = ProblemSpec(n=3, m=2, r=0.5, a=np.array([0.3, -0.2]), b=0.35)
        return spec, _unit_rows(rng, 12, 3)
    if kind == "layered":  # within 1e-8 of the center's own direction: a thin turnover layer
        spec = ProblemSpec(n=4, m=2, r=0.7, a=np.array([0.25, 0.4]), b=0.3)
        own = np.append(spec.a, spec.b) / math.hypot(*spec.a, spec.b)
        dirs = own + rng.uniform(1e-10, 1e-8) * _unit_rows(rng, 8, 3)
        return spec, dirs / np.linalg.norm(dirs, axis=1)[:, None]
    if kind == "cap":  # r > 0.95: every rule is graded toward the pole
        spec = ProblemSpec(n=2, m=2, r=0.97, a=np.array([-0.3, 0.5]), b=0.2)
        return spec, _unit_rows(rng, 10, 3)
    if kind == "zero_b":  # directions in the a-plane keep b = 0 with a tail; others mix in b > 0
        spec = ProblemSpec(n=3, m=2, r=0.6, a=np.array([0.3, -0.4]), b=0.0)
        theta = rng.uniform(0.0, 2.0 * np.pi, 10)
        return spec, np.vstack((np.column_stack((np.cos(theta), np.sin(theta), np.zeros(10))), _unit_rows(rng, 4, 3)))
    if kind == "negative_b":  # near e1 every rotated center keeps b < 0
        spec = ProblemSpec(n=3, m=2, r=0.6, a=np.array([0.2, -0.3]), b=-0.4)
        dirs = np.array([1.0, 0.0, 0.0]) + 0.3 * rng.standard_normal((8, 3))
        return spec, dirs / np.linalg.norm(dirs, axis=1)[:, None]
    # +-e1 with a zero tail: the rho = 0 face, next to a pole, or with a
    # tail below 1e-300 on the b > 0 branch
    e1 = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    if kind == "face":
        return ProblemSpec(n=2, m=2, r=0.6060684418185088, a=np.array([-0.9996886444013925, 0.0]), b=0.0), e1
    return ProblemSpec(n=3, m=2, r=0.5, a=np.array([0.4, 0.0]), b=1e-305), e1


@pytest.mark.parametrize("kind", ["plain", "layered", "cap", "zero_b", "face", "face_b"])
def test_batching_does_not_change_a_direction_value(kind):
    spec, dirs = _batch_family(kind)
    witness = directional_bound(spec, dirs[0]).witness
    assert {
        "plain": witness.layer is None and not witness.breakpoints,
        "layered": witness.layer is not None,
        "cap": bool(witness.breakpoints) and witness.layer is None,
        "zero_b": witness.branch == "zero_b" and witness.solution.jump_point is None,
        "face": witness.solution.jump_point is not None,
        "face_b": witness.branch == "positive_b" and witness.solution.dual_point[1] < 1e-300,
    }[kind]
    values = region_envelope(spec, directions=dirs).values
    for e, h in zip(dirs, values):
        assert h == directional_bound(spec, e).value
    order = np.random.default_rng(3).permutation(len(dirs))
    np.testing.assert_array_equal(region_envelope(spec, directions=dirs[order]).values, values[order])
    np.testing.assert_array_equal(region_envelope(spec, directions=dirs[::2]).values, values[::2])


@pytest.mark.parametrize("kind", ["plain", "layered", "cap", "zero_b", "face", "face_b", "negative_b"])
def test_axis_evaluator_batch_is_the_lone_evaluation(kind):
    # every map's column of the batch evaluator is eval_on_axis of that map
    # alone, in every component and in any order
    spec, dirs = _batch_family(kind)
    maps = [boundary_map(_rotated(spec, e)) for e in dirs]
    if kind == "negative_b":
        assert all(bmap.spec.b < 0.0 for bmap in maps)
    order = np.random.default_rng(4).permutation(len(maps))
    for rho in (0.0, spec.r, 0.97, 0.999):
        batch = _on_axis(maps, rho, [bmap.rule for bmap in maps])
        for k, bmap in enumerate(maps):
            lone = eval_on_axis(bmap, rho).value
            assert batch[:, k].tobytes() == lone.tobytes()
        shuffled = _on_axis([maps[k] for k in order], rho, [maps[k].rule for k in order])
        assert shuffled.tobytes() == batch[:, order].tobytes()


def test_negative_b_map_is_the_batch_of_one():
    spec = ProblemSpec(n=3, m=2, r=0.6, a=np.array([0.2, -0.3]), b=-0.4)
    lone, batch = boundary_map(spec), boundary_maps([spec])[0]
    mirror = boundary_map(ProblemSpec(spec.n, spec.m, spec.r, spec.a, -spec.b))
    for bmap in (batch, mirror):
        assert (bmap.branch, bmap.breakpoints) == (lone.branch, lone.breakpoints)
        np.testing.assert_array_equal(bmap.solution.lam, lone.solution.lam)
        assert bmap.solution.mu == lone.solution.mu > 0.0
    t = np.linspace(-1.0, 1.0, 201)
    np.testing.assert_array_equal(batch.components(t), lone.components(t))
    np.testing.assert_array_equal(mirror.components(t) * [[1.0], [1.0], [-1.0]], lone.components(t))


def test_batch_datum_is_each_lone_datum_without_warnings():
    # jump, smooth and constant rows in one call; a jump row's latitudes
    # include its own jump point, where the smooth formula would divide by 0
    face, _ = _batch_family("face")
    jump = boundary_map(face)
    t_star = jump.solution.jump_point
    spec = ProblemSpec(face.n, face.m, face.r, np.array([0.1, 0.2]), 0.3)
    maps = [jump, boundary_map(spec), constant_map(spec), jump]
    grids = [[-1.0, t_star, 1.0], np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 4), [t_star]]
    specs, sols = [bmap.spec for bmap in maps], [bmap.solution for bmap in maps]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = datum(specs, sols, np.concatenate(grids), [len(g) for g in grids])
        lone = [bmap.components(g) for bmap, g in zip(maps, grids)]
    assert out.tobytes() == np.concatenate(lone, axis=1).tobytes()
    np.testing.assert_array_equal(lone[0][0], [-1.0, 0.0, 1.0])


def test_batches_past_one_pass_keep_every_value():
    # more directions than one pass takes (solver.BATCH_ROWS) are split
    # into passes; the values at the seams are still the lone ones
    spec = ProblemSpec(n=3, m=1, r=0.5, a=np.array([0.3]), b=0.4)
    env = region_envelope(spec, count=130, scheme="random", seed=2)
    for i in (0, 63, 64, 65, 128, 129):
        assert env.values[i] == directional_bound(spec, env.directions[i]).value


def test_envelope_raises_when_a_direction_misses_its_tolerance(monkeypatch):
    spec = ProblemSpec(3, 2, 0.5, (0.3, -0.2), 0.35)
    monkeypatch.setattr(solver, "_POSITIVE_B_TOL", 1e-18)
    with pytest.raises(SolverError):
        region_envelope(spec, count=8, scheme="random", seed=1)


def test_envelope_direction_validation():
    spec = ProblemSpec(n=3, m=1, r=0.4, a=np.array([0.2]), b=0.3)
    with pytest.raises(ValueError):
        region_envelope(spec, directions=np.array([[1.1, 0.0]]))
    with pytest.raises(ValueError):
        region_envelope(spec, directions=np.zeros((0, 2)))
    with pytest.raises(ValueError):
        region_envelope(spec, directions=np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        directional_bound(spec, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_direction_is_named_in_the_error(bad):
    # NaN passed the unit-norm comparisons, and the error blamed the center
    spec = ProblemSpec(n=3, m=1, r=0.4, a=np.array([0.2]), b=0.3)
    with pytest.raises(ValueError, match=r"finite unit vectors, got e=\[(nan|inf) +0\.\] at row 1"):
        region_envelope(spec, directions=np.array([[1.0, 0.0], [bad, 0.0]]))
    with pytest.raises(ValueError, match=r"finite unit vector, got v=\[(nan|inf) +0\.\]"):
        directional_bound(spec, np.array([bad, 0.0]))


def test_direction_family_grid_scheme():
    dirs, resolved = direction_family(2, 8, scheme="auto")
    assert resolved == "grid"
    theta = 2.0 * np.pi * np.arange(8) / 8
    np.testing.assert_allclose(dirs, np.column_stack([np.cos(theta), np.sin(theta)]), atol=1e-15)


def test_direction_family_fibonacci_scheme():
    dirs, resolved = direction_family(3, 50, scheme="auto")
    assert resolved == "fibonacci"
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    # the lattice walks the polar coordinate down uniformly
    np.testing.assert_allclose(dirs[:, 2], 1.0 - (2.0 * np.arange(50) + 1.0) / 50, atol=1e-12)


def test_direction_family_random_scheme_is_seeded():
    first, resolved = direction_family(4, 16, seed=3)
    again, _ = direction_family(4, 16, seed=3)
    other, _ = direction_family(4, 16, seed=4)
    assert resolved == "random"
    np.testing.assert_array_equal(first, again)
    assert np.abs(first - other).max() > 1e-3


def test_direction_family_validation():
    with pytest.raises(ValueError):
        direction_family(3, 8, scheme="grid")
    with pytest.raises(ValueError):
        direction_family(2, 8, scheme="fibonacci")
    with pytest.raises(ValueError):
        direction_family(2, 8, scheme="cubature")
    with pytest.raises(ValueError):
        direction_family(1, 8)
    with pytest.raises(ValueError):
        direction_family(2, 0)


def test_envelope_json_is_canonical_and_deterministic():
    spec = ProblemSpec(n=3, m=2, r=0.5, a=np.array([0.3, -0.2]), b=0.35)
    env = region_envelope(spec, count=6, scheme="random", seed=5)
    text = envelope_to_json(env)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc.keys()) == ["n", "m", "r", "a", "b", "halfspaces", "scheme", "seed", "quadrature_order"]
    assert doc["n"] == 3 and doc["m"] == 2 and doc["r"] == 0.5
    np.testing.assert_array_equal([row["h"] for row in doc["halfspaces"]], env.values)
    np.testing.assert_array_equal([row["e"] for row in doc["halfspaces"]], env.directions)
    regenerated = envelope_to_json(region_envelope(spec, count=6, scheme="random", seed=5))
    assert regenerated == text


def test_bound_shrinks_to_the_center_value():
    spec = ProblemSpec(n=3, m=1, r=1e-3, a=np.array([0.3]), b=0.4)
    assert abs(axis_bound(spec).value - 0.3) < 5e-3


def test_bound_grows_with_the_radius():
    values = [
        axis_bound(ProblemSpec(n=3, m=1, r=r, a=np.array([0.3]), b=0.4)).value
        for r in (0.2, 0.4, 0.6, 0.8)
    ]
    assert np.all(np.diff(values) > 0)


@given(theta=st.floats(min_value=0.0, max_value=2.0 * np.pi))
@settings(max_examples=25, deadline=None)
def test_directional_bound_stays_inside_the_unit_ball(theta):
    spec = ProblemSpec(n=3, m=1, r=0.5, a=np.array([0.3]), b=0.2)
    e = np.array([np.cos(theta), np.sin(theta)])
    value = directional_bound(spec, e).value
    assert value <= 1.0 + 1e-12
    assert value >= np.array([0.3, 0.2]) @ e - 1e-10
