"""Independent checks on the discretized search and the admissibility helpers."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_schwarz import OracleError, ProblemSpec, oracle
from harmonic_schwarz.bounds import axis_bound
from harmonic_schwarz.mapping import boundary_map, constant_map, eval_batch
from harmonic_schwarz.oracle import (
    admissible_mixture,
    build_program,
    discretized_max,
    discretized_max_sphere,
    jacobian_fd_check,
    mean_value_residual,
)


@lru_cache(maxsize=None)
def cached_map(n, m, r, a, b):
    return boundary_map(ProblemSpec(n, m, r, a, b))


@lru_cache(maxsize=None)
def reference_bound(n, m, r, a, b):
    return axis_bound(ProblemSpec(n, m, r, a, b)).value


# -- discretized search --------------------------------------------------


def test_zonal_search_recovers_the_planar_centered_bound():
    spec = ProblemSpec(2, 1, 0.5, (0.0,), 0.0)
    value = discretized_max(spec, node_count=2048)
    expected = (4.0 / np.pi) * np.arctan(0.5)
    assert value == pytest.approx(expected, abs=1e-6)


def test_zonal_search_matches_the_high_cap_bound():
    # nearly all the admissible mass is pinned by b; the program is almost
    # a single-point problem and the search should nail it
    spec = ProblemSpec(3, 1, 0.4, (0.0,), 0.99)
    value = discretized_max(spec, node_count=2048)
    assert value == pytest.approx(reference_bound(3, 1, 0.4, (0.0,), 0.99), abs=1e-6)


def test_zonal_search_resolves_an_off_centre_jump():
    # b = 0 with no tail: the dual's sign datum meets the mean only to node
    # spacing (4.9e-4 short here) until the crossing node absorbs the rest
    spec = ProblemSpec(2, 1, 0.7761699154273051, (0.2935655363025601,), 0.0)
    value = discretized_max(spec, node_count=2048)
    expected = reference_bound(2, 1, 0.7761699154273051, (0.2935655363025601,), 0.0)
    assert value == pytest.approx(expected, abs=1e-6)


def test_zonal_search_certifies_its_gap(monkeypatch):
    spec = ProblemSpec(3, 2, 0.5, (0.2, -0.1), 0.4)
    monkeypatch.setattr(oracle, "_GAP_TOL", 1e-8)
    value = discretized_max(spec, node_count=2048)
    assert value == pytest.approx(reference_bound(3, 2, 0.5, (0.2, -0.1), 0.4), abs=1e-6)
    monkeypatch.setattr(oracle, "_GAP_TOL", 1e-30)
    with pytest.raises(OracleError) as err:
        discretized_max(spec, node_count=2048)
    assert err.value.gap > 1e-30


def test_sphere_search_approaches_the_axis_bound():
    spec = ProblemSpec(3, 1, 0.3, (0.25,), 0.35)
    value = discretized_max_sphere(spec, node_count=4000)
    expected = reference_bound(3, 1, 0.3, (0.25,), 0.35)
    assert value == pytest.approx(expected, rel=2e-2)


def test_search_validates_the_node_count():
    spec = ProblemSpec(3, 1, 0.5, (0.3,), 0.4)
    with pytest.raises(ValueError, match="at least 8"):
        discretized_max(spec, node_count=7)
    with pytest.raises(ValueError, match="even"):
        discretized_max_sphere(spec, node_count=7)
    with pytest.raises(ValueError, match="even"):
        discretized_max_sphere(spec, node_count=201)


def test_program_kernel_carries_unit_mass():
    prog = build_program(ProblemSpec(4, 2, 0.6, (0.2, 0.1), 0.3), 512)
    assert prog.node_count == 512
    assert "512" in prog.description
    assert prog.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert prog.weights @ prog.kernel == pytest.approx(1.0, abs=1e-12)


# -- admissible mixtures -------------------------------------------------


def test_extremal_datum_attains_the_bound_as_a_mixture():
    mix = admissible_mixture(
        ProblemSpec(3, 1, 0.5, (0.3,), 0.4),
        [(cached_map(3, 1, 0.5, (0.3,), 0.4), 1.0)],
    )
    assert mix.axis_value(0.5) == pytest.approx(
        reference_bound(3, 1, 0.5, (0.3,), 0.4), abs=1e-9
    )


def test_constant_blend_sits_strictly_below_the_bound():
    spec = ProblemSpec(3, 1, 0.5, (0.3,), 0.4)
    mix = admissible_mixture(
        spec, [(cached_map(3, 1, 0.5, (0.3,), 0.4), 0.5), (constant_map(spec), 0.5)]
    )
    assert reference_bound(3, 1, 0.5, (0.3,), 0.4) - mix.axis_value(0.5) > 1e-3


def test_mixing_radii_stays_below_the_bound():
    # a datum extremal for a different radius is admissible but suboptimal
    spec = ProblemSpec(3, 1, 0.5, (0.3,), 0.4)
    mix = admissible_mixture(
        spec,
        [(cached_map(3, 1, 0.5, (0.3,), 0.4), 0.7), (cached_map(3, 1, 0.25, (0.3,), 0.4), 0.3)],
    )
    gap = reference_bound(3, 1, 0.5, (0.3,), 0.4) - mix.axis_value(0.5)
    assert 1e-6 < gap < 1e-2


@settings(max_examples=20, deadline=None)
@given(w=st.floats(min_value=0.01, max_value=0.99))
def test_splitting_one_datum_changes_nothing(w):
    spec = ProblemSpec(3, 1, 0.5, (0.3,), 0.4)
    bmap = cached_map(3, 1, 0.5, (0.3,), 0.4)
    split = admissible_mixture(spec, [(bmap, w), (bmap, 1.0 - w)])
    whole = admissible_mixture(spec, [(bmap, 1.0)])
    assert split.axis_value(0.5) == pytest.approx(whole.axis_value(0.5), abs=1e-13)


def test_mixture_constraint_means_are_tight():
    spec = ProblemSpec(3, 1, 0.5, (0.3,), 0.4)
    mix = admissible_mixture(
        spec, [(cached_map(3, 1, 0.5, (0.3,), 0.4), 0.5), (constant_map(spec), 0.5)]
    )
    res_a, res_b = mix.mean_residuals()
    assert res_a < 1e-12
    assert res_b < 1e-12


def test_mixture_validation_rejects_bad_components():
    spec = ProblemSpec(3, 1, 0.5, (0.3,), 0.4)
    bmap = cached_map(3, 1, 0.5, (0.3,), 0.4)
    with pytest.raises(ValueError, match="sum to one"):
        admissible_mixture(spec, [(bmap, 0.7), (constant_map(spec), 0.2)])
    with pytest.raises(ValueError, match="nonnegative"):
        admissible_mixture(spec, [(bmap, 1.2), (constant_map(spec), -0.2)])
    with pytest.raises(ValueError, match="share the mean"):
        admissible_mixture(spec, [(bmap, 0.5), (cached_map(3, 1, 0.5, (0.2,), 0.4), 0.5)])
    with pytest.raises(ValueError, match="falls short"):
        admissible_mixture(spec, [(cached_map(3, 1, 0.5, (0.3,), 0.2), 1.0)])
    with pytest.raises(ValueError, match="at least one"):
        admissible_mixture(spec, [])


# -- mean value probes ---------------------------------------------------


def test_mean_value_identity_holds_for_the_constant_map():
    spec = ProblemSpec(3, 1, 0.5, (0.3,), 0.4)
    cmap = constant_map(spec)
    res = mean_value_residual(
        lambda pts: eval_batch(cmap, pts), np.array([0.1, 0.0, 0.2]), 0.15
    )
    assert res < 1e-12


def test_mean_value_identity_holds_for_the_extremal_map():
    bmap = cached_map(3, 1, 0.5, (0.3,), 0.4)
    res = mean_value_residual(
        lambda pts: eval_batch(bmap, pts), np.array([0.1, 0.0, 0.2]), 0.15
    )
    assert res < 1e-3


def test_mean_value_residual_detects_a_quadratic_defect():
    # adding |y|^2 to one component shifts the sphere mean by exactly s^2
    spec = ProblemSpec(3, 1, 0.5, (0.3,), 0.4)
    cmap = constant_map(spec)

    def warped(pts):
        out = eval_batch(cmap, pts)
        out[:, 0] = out[:, 0] + np.einsum("ij,ij->i", pts, pts)
        return out

    res = mean_value_residual(warped, np.array([0.1, 0.0, 0.2]), 0.15)
    assert res == pytest.approx(0.15**2, abs=1e-12)


def test_mean_value_probe_geometry_is_validated():
    spec = ProblemSpec(3, 1, 0.5, (0.3,), 0.4)
    cmap = constant_map(spec)
    evaluator = lambda pts: eval_batch(cmap, pts)
    with pytest.raises(ValueError, match="inside the unit ball"):
        mean_value_residual(evaluator, np.array([0.9, 0.0, 0.0]), 0.2)
    with pytest.raises(ValueError, match="positive"):
        mean_value_residual(evaluator, np.array([0.1, 0.0, 0.0]), 0.0)
    with pytest.raises(ValueError, match="positive"):
        mean_value_residual(evaluator, np.array([0.1, 0.0, 0.0]), -0.1)


@pytest.mark.parametrize("count", [-2, 0, 1, 3, 257])
def test_mean_value_probes_come_in_antithetic_pairs(count):
    # one probe without its pair read a residual of 0.1 for the identity map
    identity = lambda pts: pts
    with pytest.raises(ValueError, match="probe_count"):
        mean_value_residual(identity, np.zeros(3), 0.1, probe_count=count)
    assert mean_value_residual(identity, np.zeros(3), 0.1, probe_count=2) == 0.0


# -- finite-difference audit ---------------------------------------------


def test_moment_jacobian_matches_finite_differences():
    spec = ProblemSpec(3, 2, 0.5, (0.2, -0.1), 0.4)
    gap = jacobian_fd_check(spec, np.array([0.6, 0.1]), 1.3)
    assert gap < 1e-8
