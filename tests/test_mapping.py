"""Boundary data wrapping and Poisson evaluation of the extremal maps."""

import dataclasses
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmonic_schwarz import ProblemSpec, axis_bound, boundary_map, kernel_inverse, mapping, sphere
from harmonic_schwarz.mapping import (
    BoundaryMap,
    axis_values,
    boundary_maps,
    constant_map,
    constraint_residuals,
    eval_batch,
    eval_general,
    eval_on_axis,
)
from harmonic_schwarz.oracle import mean_value_residual
from harmonic_schwarz.solver import _axis_cap_breakpoints
from harmonic_schwarz.sphere import biaxial_rule, segmented_nodes, segmented_pairs


@lru_cache(maxsize=8)
def cached_map(n, m, r, a, b):
    return boundary_map(ProblemSpec(n=n, m=m, r=r, a=np.array(a), b=b))


def test_positive_branch_datum_lies_on_the_sphere():
    bm = cached_map(3, 2, 0.55, (0.3, -0.2), 0.4)
    assert bm.branch == "positive_b"
    res_a, res_b = constraint_residuals(bm)
    assert res_a < 1e-10 and res_b < 1e-10
    t = np.linspace(-0.999, 0.999, 2001)
    comps = bm.components(t)
    np.testing.assert_allclose((comps**2).sum(axis=0), 1.0, atol=1e-12)
    assert np.all(comps[-1] > 0)  # last component keeps the sign of b


def test_negative_b_flips_only_the_last_component():
    pos = cached_map(3, 1, 0.5, (0.2,), 0.4)
    neg = cached_map(3, 1, 0.5, (0.2,), -0.4)
    t = np.linspace(-0.99, 0.99, 400)
    np.testing.assert_array_equal(pos.components(t)[0], neg.components(t)[0])
    np.testing.assert_array_equal(pos.components(t)[1], -neg.components(t)[1])
    ax_pos = eval_on_axis(pos, 0.3).value
    ax_neg = eval_on_axis(neg, 0.3).value
    assert ax_pos[0] == ax_neg[0]
    assert ax_pos[1] == -ax_neg[1]


def test_zero_branch_centered_datum_is_the_hemisphere_jump():
    bm = cached_map(2, 1, 0.5, (0.0,), 0.0)
    assert bm.branch == "zero_b"
    assert bm.solution.jump_point == pytest.approx(0.0, abs=1e-9)
    assert bm.breakpoints == (bm.solution.jump_point,)
    comps = bm.components(np.array([-0.5, 0.5]))
    np.testing.assert_array_equal(comps[0], [-1.0, 1.0])
    np.testing.assert_array_equal(comps[1], [0.0, 0.0])


def test_zero_branch_tail_datum_is_unimodular():
    bm = cached_map(3, 2, 0.4, (0.2, 0.3), 0.0)
    t = np.linspace(-0.99, 0.99, 500)
    comps = bm.components(t)
    np.testing.assert_allclose((comps[:2] ** 2).sum(axis=0), 1.0, atol=1e-12)
    assert np.all(comps[2] == 0.0)
    res_a, res_b = constraint_residuals(bm)
    assert res_a < 1e-8 and res_b < 1e-12


def test_center_evaluation_recovers_the_prescribed_value():
    bm = cached_map(3, 2, 0.55, (0.3, -0.2), 0.4)
    np.testing.assert_allclose(eval_on_axis(bm, 0.0).value, [0.3, -0.2, 0.4], atol=1e-10)
    bz = cached_map(3, 2, 0.4, (0.2, 0.3), 0.0)
    np.testing.assert_allclose(eval_on_axis(bz, 0.0).value, [0.2, 0.3, 0.0], atol=1e-8)


@pytest.mark.parametrize("r", [0.3, 0.5, 0.8])
def test_planar_centered_axis_value_matches_arctan_formula(r):
    bm = cached_map(2, 1, r, (0.0,), 0.0)
    assert eval_on_axis(bm, r).value[0] == pytest.approx(
        (4.0 / np.pi) * np.arctan(r), abs=1e-10
    )


def test_three_dim_centered_axis_value_matches_closed_form():
    r = 0.5
    bm = cached_map(3, 1, r, (0.0,), 0.0)
    closed = (1.0 / r) * (1.0 - (1.0 - r * r) / np.sqrt(1.0 + r * r))
    assert eval_on_axis(bm, r).value[0] == pytest.approx(closed, abs=1e-12)


@pytest.mark.parametrize("gap", [1e-6, 3e-8, 1e-8, 1e-12])
def test_centered_axis_values_next_to_the_sphere_match_closed_forms(gap):
    # the kernel peaks within gap^2 of the pole, where nodes rounded to
    # latitudes misplace its mass by up to 1e-16 / gap^2
    r = 1.0 - gap
    planar = eval_on_axis(cached_map(2, 1, r, (0.0,), 0.0), r)
    assert planar.value[0] == pytest.approx((4.0 / np.pi) * np.arctan(r), abs=1e-14)
    spatial = eval_on_axis(cached_map(3, 1, r, (0.0,), 0.0), r)
    closed = (1.0 / r) * (1.0 - (1.0 - r * r) / np.sqrt(1.0 + r * r))
    assert spatial.value[0] == pytest.approx(closed, abs=1e-14)
    assert max(planar.quadrature_error_estimate, spatial.quadrature_error_estimate) < 1e-14


@pytest.mark.parametrize("gap", [3e-8, 1e-8])
def test_axis_bound_next_to_the_sphere_needs_no_full_order_cap_panels(gap, monkeypatch):
    # the innermost cap panels are cut at the 1e-13 grading floor, far wider
    # than the kernel's peak; full-order panels must give the same bound
    spec = ProblemSpec(n=3, m=2, r=1.0 - gap, a=np.array([0.3, 0.1]), b=0.2)
    value = axis_bound(spec).value
    assert value < 1.0
    monkeypatch.setattr(sphere, "_narrow_order", lambda order: order)
    assert axis_bound(spec).value == pytest.approx(value, abs=1e-13)


def test_general_evaluation_agrees_with_the_axis_reduction():
    bm = cached_map(3, 2, 0.55, (0.3, -0.2), 0.4)
    np.testing.assert_allclose(eval_general(bm, np.zeros(3)).value, [0.3, -0.2, 0.4], atol=1e-12)
    rho = 0.42
    ax = eval_on_axis(bm, rho).value
    gen = eval_general(bm, np.array([0.0, 0.0, rho]))
    np.testing.assert_allclose(gen.value, ax, atol=1e-9)
    np.testing.assert_array_equal(gen.x, [0.0, 0.0, rho])


def test_batch_evaluation_matches_pointwise_calls():
    bm = cached_map(3, 2, 0.55, (0.3, -0.2), 0.4)
    pts = np.array([[0.1, -0.2, 0.3], [0.0, 0.0, 0.42], [0.2, 0.1, -0.1]])
    batch = eval_batch(bm, pts)
    assert batch.shape == (3, 3)
    for k, x in enumerate(pts):
        np.testing.assert_allclose(batch[k], eval_general(bm, x).value, atol=1e-12)


def test_values_depend_only_on_radius_and_latitude():
    # harmonic extension of a zonal datum is invariant under rotations
    # fixing the pole axis
    bm = cached_map(3, 2, 0.55, (0.3, -0.2), 0.4)
    p1 = np.array([0.25, 0.1, 0.3])
    p2 = np.array([np.hypot(0.25, 0.1), 0.0, 0.3])
    out = eval_batch(bm, np.vstack([p1, p2]))
    np.testing.assert_allclose(out[0], out[1], atol=1e-14)


@given(
    rho=st.floats(min_value=0.0, max_value=0.95),
    cos_t=st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_interior_values_stay_inside_the_ball(rho, cos_t):
    bm = cached_map(3, 1, 0.5, (0.2,), 0.4)
    sin_t = np.sqrt(max(1.0 - cos_t * cos_t, 0.0))
    x = rho * np.array([sin_t, 0.0, cos_t])
    assert np.linalg.norm(eval_batch(bm, x[None, :])[0]) < 1.0


def test_evaluation_input_validation():
    bm = cached_map(3, 1, 0.5, (0.2,), 0.4)
    with pytest.raises(ValueError):
        eval_on_axis(bm, 1.0)
    with pytest.raises(ValueError):
        eval_on_axis(bm, -0.1)
    with pytest.raises(ValueError):
        eval_general(bm, np.array([1.2, 0.0, 0.0]))
    with pytest.raises(ValueError):
        eval_general(bm, np.zeros(2))
    with pytest.raises(ValueError):
        eval_batch(bm, np.zeros((2, 4)))


def test_evaluators_reject_a_non_finite_point_by_name():
    bm = cached_map(3, 1, 0.5, (0.2,), 0.4)
    for bad in (np.nan, np.inf, -np.inf):
        points = np.array([[0.1, 0.0, 0.2], [bad, 0.0, 0.0]])
        with pytest.raises(ValueError, match=r"finite, got row 1"):
            eval_batch(bm, points)
        with pytest.raises(ValueError, match=r"finite, got row 0"):
            eval_general(bm, points[1])
    # a NaN center passes the probe-sphere check, so the evaluator rejects it
    with pytest.raises(ValueError, match=r"finite, got row 0"):
        mean_value_residual(lambda p: eval_batch(bm, p), np.array([np.nan, 0.0, 0.0]), 0.1)


def jump_map_n4():
    """An n = 4 jump witness: a jump doubles the default biaxial rule to 65,536 nodes."""
    return cached_map(4, 1, 0.45, (0.5,), 0.0)


def ball_points(n, count, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(count, n))
    return x * (0.95 * rng.uniform(size=(count, 1)) ** (1.0 / n) / np.linalg.norm(x, axis=1)[:, None])


def direct_poisson_sum(bm, points):
    """Per point, the biaxial Poisson sum written out as a loop over the points."""
    n = bm.spec.n
    t1, t2, w = segmented_pairs(biaxial_rule(n, bm.rule.order // 2), bm.breakpoints, bm.layer)
    comps = bm.components(t1)
    out = np.empty((len(points), bm.spec.m + 1))
    for k, x in enumerate(points):
        rho = float(np.linalg.norm(x))
        if rho < 1e-14:
            rho, cos_t, sin_t = 0.0, 1.0, 0.0
        else:
            cos_t, sin_t = x[-1] / rho, float(np.linalg.norm(x[:-1])) / rho
        proj = cos_t * t1 + sin_t * t2
        kern = (1.0 - rho * rho) * ((1.0 - rho) ** 2 + 2.0 * rho * (1.0 - proj)) ** (-0.5 * n)
        out[k] = (kern * w) @ comps.T
    return out


# Odd n takes a square root; n // 2 = 3 at n = 7 takes a multiply between squarings
ODD_AND_HIGH_N = {
    "n3_smooth": ((3, 2, 0.55, (0.3, -0.2), 0.4), 40),
    "n3_jump": ((3, 1, 0.5, (0.3,), 0.0), 20),  # 65,536 pairs, as the interior workload's n = 3 jump witness
    "n5_jump": ((5, 1, 0.5, (0.3,), 0.0), 20),
    "n7_smooth": ((7, 2, 0.5, (0.2, 0.1), 0.3), 20),
    "n16_smooth": ((16, 1, 0.5, (0.2,), 0.4), 20),
}


@pytest.mark.parametrize(
    "case",
    ["n4_jump_several_blocks", "n2_angular", "n2_smooth", *ODD_AND_HIGH_N, "origin", "one_point", "empty"],
)
def test_blocked_evaluation_matches_a_direct_poisson_sum(case):
    if case == "n2_angular":
        bm, points = cached_map(2, 1, 0.5, (0.0,), 0.0), ball_points(2, 300, 1)
    elif case == "n2_smooth":  # the default circle rule, with no breakpoints
        bm, points = cached_map(2, 1, 0.5, (0.3,), 0.4), ball_points(2, 300, 1)
        assert bm.breakpoints == () and bm.layer is None
    elif case in ODD_AND_HIGH_N:
        args, count = ODD_AND_HIGH_N[case]
        bm = cached_map(*args)
        points = ball_points(bm.spec.n, count, 5)
    else:
        bm = jump_map_n4()
        count = {"n4_jump_several_blocks": 7, "origin": 1, "one_point": 1, "empty": 0}[case]
        points = ball_points(4, count, 2)
        if case == "origin":
            points = np.vstack([np.zeros(4), points])
    if case == "n4_jump_several_blocks":  # one point per block
        nodes = segmented_pairs(biaxial_rule(4, bm.rule.order // 2), bm.breakpoints)[0]
        assert nodes.size == mapping._BLOCK_VALUES
    got = eval_batch(bm, points)
    assert got.shape == (len(points), bm.spec.m + 1)
    np.testing.assert_allclose(got, direct_poisson_sum(bm, points), rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", range(2, 17))
def test_inverse_power_matches_pow(n):
    base = np.geomspace(1e-4, 4.0, 24).reshape(2, 12)  # (1 - rho)^2 + 2 rho (1 - proj) spans (0, 4]
    got, work = base.copy(), np.empty_like(base)
    mapping._inverse_power(got, n, work)
    np.testing.assert_allclose(got, base ** (-0.5 * n), rtol=4e-15, atol=0)


@pytest.mark.parametrize("args", [
    (3, 2, 0.55, (0.3, -0.2), 0.4),
    (3, 1, 0.5, (0.25,), 0.0),
    (4, 2, 0.5, (0.25, -0.1), 0.35),
    (4, 1, 0.45, (0.5,), 0.0),
])
def test_off_axis_values_match_a_fine_biaxial_rule(args):
    # the default rule's error grows toward the sphere: 2e-11 at |x| = 0.9,
    # 1e-5 at 0.95 (ROADMAP item 2), so this pins it where it is still small
    bm = cached_map(*args)
    n = bm.spec.n
    fine = dataclasses.replace(bm, rule=sphere.zonal_rule(n, 2048))  # on the 1024 x 512 biaxial rule
    dirs = np.random.default_rng(7).normal(size=(6, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    for radius in (0.8, 0.9):
        points = radius * dirs
        np.testing.assert_allclose(
            eval_batch(bm, points), eval_batch(fine, points), rtol=0, atol=1e-10
        )


def test_block_size_does_not_change_values(monkeypatch):
    # by default the n = 3 map takes two points a block, the n = 4 jump map
    # one, and the n = 2 map the whole batch
    maps = (cached_map(3, 2, 0.55, (0.3, -0.2), 0.4), jump_map_n4(), cached_map(2, 1, 0.5, (0.3,), 0.4))
    for bm in maps:
        n = bm.spec.n
        points = ball_points(n, 5, 3)
        nodes = segmented_pairs(biaxial_rule(n, bm.rule.order // 2), bm.breakpoints)[0].size
        monkeypatch.undo()
        default = eval_batch(bm, points)
        # one point per block, two with a short last block, the whole batch in one
        for values in (nodes, 2 * nodes, nodes * len(points)):
            monkeypatch.setattr(mapping, "_BLOCK_VALUES", values)
            np.testing.assert_allclose(eval_batch(bm, points), default, rtol=0, atol=1e-13)


def test_blocked_evaluation_keeps_its_temporaries_small():
    # one 644-point call on a 65,536-pair rule: fresh 16 MB blocks peaked at
    # 99.5 MiB and the expanded (t1, t2) pairs beside two reused 512 KB
    # buffers at 4.6 MiB; on the factored rule the call peaks at 1.1 MiB
    bm = jump_map_n4()
    points = ball_points(4, 644, 4)
    eval_batch(bm, points[:1])  # build the rule outside the measurement
    tracemalloc.start()
    try:
        eval_batch(bm, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_constraint_residuals_flag_unconverged_multipliers():
    spec = ProblemSpec(n=3, m=1, r=0.5, a=np.array([0.2]), b=0.4)
    bm = cached_map(3, 1, 0.5, (0.2,), 0.4)
    lam = bm.solution.lam.copy()
    lam[0] += 1e-3
    broken = dataclasses.replace(bm.solution, lam=lam)
    fake = BoundaryMap(spec, "positive_b", broken, (), bm.rule)
    res_a, res_b = constraint_residuals(fake)
    assert res_a > 1e-4  # the diagnostic must see a multiplier this wrong


def test_constant_map_extends_to_its_own_center_value():
    spec = ProblemSpec(n=3, m=2, r=0.6, a=np.array([0.1, -0.3]), b=0.5)
    bm = constant_map(spec)
    assert constraint_residuals(bm) == (pytest.approx(0.0, abs=1e-14), pytest.approx(0.0, abs=1e-14))
    for rho in (0.0, 0.7, 0.999):  # the axis value is exactly the center's, and so is its coarse one
        edge = eval_on_axis(bm, rho)
        np.testing.assert_array_equal(edge.value, [0.1, -0.3, 0.5])
        assert edge.quadrature_error_estimate == 0.0
    np.testing.assert_allclose(
        eval_general(bm, np.array([0.2, -0.4, 0.1])).value, [0.1, -0.3, 0.5], atol=1e-12
    )


def test_axis_profile_grows_toward_the_bound():
    bm = cached_map(3, 2, 0.55, (0.3, -0.2), 0.4)
    values = [eval_on_axis(bm, rho).value[0] for rho in np.linspace(0.0, 0.55, 12)]
    assert np.all(np.diff(values) > 0)


def test_high_cap_datum_splits_the_mass_correctly():
    bm = cached_map(3, 1, 0.4, (0.0,), 0.9)
    t, w = segmented_nodes(bm.rule, bm.breakpoints)
    comps = bm.components(t)
    assert w @ comps[0] == pytest.approx(0.0, abs=1e-12)
    assert w @ comps[1] == pytest.approx(0.9, abs=1e-10)


@pytest.mark.parametrize("n,a", [(3, (0.25,)), (2, (0.4,))])
def test_branch_continuity_small_b_to_zero(n, a):
    # the positive branch must join the degenerate one continuously
    near = boundary_map(ProblemSpec(n=n, m=1, r=0.3, a=np.array(a), b=1e-6))
    limit = boundary_map(ProblemSpec(n=n, m=1, r=0.3, a=np.array(a), b=0.0))
    gap = max(
        abs(float(eval_on_axis(near, rho).value[0]) - float(eval_on_axis(limit, rho).value[0]))
        for rho in np.linspace(0.0, 0.3, 7)
    )
    assert gap < 1e-3


@pytest.mark.parametrize("r", [0.4, 0.97])
def test_a_smooth_zero_b_solution_carries_its_crossing(r):
    # the datum bends where u_1 crosses zero; the solution owns that
    # breakpoint and the map takes the solution's, beside r's cap grading
    bm = boundary_map(ProblemSpec(n=2, m=2, r=r, a=np.array([0.4, 0.3]), b=0.0))
    sol = bm.solution
    assert sol.jump_point is None and sol.layer is None
    t_star = kernel_inverse(r, 2, sol.lam[0])
    assert sol.breakpoints == bm.breakpoints == tuple(sorted({*_axis_cap_breakpoints(r), t_star}))


def test_empty_batches_give_empty_results():
    assert boundary_maps([]) == []
    assert axis_values([], 0.5).shape == (0,)
    with pytest.raises(ValueError, match="rho"):
        axis_values([], 1.0)


def test_small_b_extension_carries_the_layer_partition():
    # without the layer panel the center identity drifts by the plain
    # rule's staircase quantization, around 1e-3 at this order
    bm = boundary_map(ProblemSpec(n=3, m=1, r=0.5, a=np.array([0.25]), b=1e-6))
    assert bm.layer is not None and bm.layer is bm.solution.layer
    assert bm.breakpoints == bm.solution.breakpoints == (bm.layer.lo, bm.layer.hi)
    np.testing.assert_allclose(eval_on_axis(bm, 0.0).value, [0.25, 1e-6], atol=1e-8)
    ev = eval_on_axis(bm, 0.5)
    assert ev.quadrature_error_estimate < 1e-8


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("b", [1e-6, 1e-9])
def test_batch_evaluation_of_thin_layer_maps_matches_the_axis(n, b):
    # eval_batch takes the layer panel through segmented_outer; without it
    # the b = 1e-6 map was 1e-3 off
    bm = boundary_map(ProblemSpec(n=n, m=2, r=0.5, a=np.array([0.3, 0.0]), b=b))
    assert bm.layer is not None
    rhos = (0.3, 0.6, 0.9)
    points = np.zeros((3, n))
    points[:, -1] = rhos
    batch = eval_batch(bm, points)
    for rho, got in zip(rhos, batch):
        np.testing.assert_allclose(got, eval_on_axis(bm, rho).value, rtol=0, atol=1e-12)


def test_error_estimate_reported_for_smooth_data():
    bm = cached_map(3, 2, 0.55, (0.3, -0.2), 0.4)
    ev = eval_general(bm, np.array([0.1, -0.2, 0.3]))
    assert 0.0 <= ev.quadrature_error_estimate < 1e-8


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["smooth", "jump"])
def test_both_evaluators_share_one_estimate_convention(n, kind, monkeypatch):
    # eval_general is eval_batch at one point; both estimates compare the
    # map with mapping._halved(map), whose biaxial rule is strictly coarser
    # (with floors on the biaxial orders, order 64 compared a rule with
    # itself and read 0).  At |x| = 0.95 the estimate stands clear of rounding.
    spec = ProblemSpec(n=n, m=1, r=0.5, a=np.array([0.3]), b=0.4 if kind == "smooth" else 0.0)
    x = np.full(n, 0.95 / np.sqrt(n))
    used = []

    def recorded(*args):
        used.append(biaxial_rule(*args))
        return used[-1]

    for order in (64, 128, 256, 512):
        bm = boundary_map(spec, sphere.zonal_rule(n, order))
        half = mapping._halved(bm)
        assert (bm.breakpoints != ()) == (kind == "jump")
        with monkeypatch.context() as patch:
            patch.setattr(mapping, "biaxial_rule", recorded)
            ev = eval_general(bm, x)
        fine, coarse = used[-2:]
        assert fine.outer_order > coarse.outer_order
        assert fine.inner.order > coarse.inner.order or n == 2  # the circle's inner rule is s = +-1
        value = eval_batch(bm, x[None])[0]
        assert ev.value.tobytes() == value.tobytes()
        assert ev.quadrature_error_estimate == np.abs(value - eval_batch(half, x[None])[0]).max() > 0.0
        axis = eval_on_axis(bm, 0.95)
        lone, halved = mapping._on_axis([bm], 0.95)[:, 0], mapping._on_axis([half], 0.95)[:, 0]
        assert axis.value.tobytes() == lone.tobytes()
        assert axis.quadrature_error_estimate == np.abs(lone - halved).max()
