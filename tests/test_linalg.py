"""Dense kernels: bordered determinants, Cramer ratios, remainders, rotations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmonic_schwarz import (
    BorderedMatrixSpec,
    bordered_dense,
    bordered_det,
    cramer_ratio,
    rotation_to_pole,
    taylor_gap,
)


def test_bordered_det_diagonal_case():
    spec = BorderedMatrixSpec(size=4, b=1.7, a11=-0.3, c=np.zeros(4))
    assert bordered_det(spec) == pytest.approx(1.7**3 * (1.7 - 0.3), rel=1e-14)


def test_bordered_det_two_by_two_example():
    # dense matrix [[1, -1], [-1, 0]] has determinant -1
    spec = BorderedMatrixSpec(size=2, b=1.0, a11=0.0, c=np.array([1.0, 1.0]))
    assert bordered_det(spec) == pytest.approx(-1.0, abs=1e-15)
    assert np.linalg.det(bordered_dense(spec)) == pytest.approx(-1.0, abs=1e-12)


def test_bordered_det_size_one():
    spec = BorderedMatrixSpec(size=1, b=0.4, a11=0.25, c=np.array([2.0]))
    assert bordered_det(spec) == pytest.approx(0.65)


def test_bordered_spec_validates_shape():
    with pytest.raises(ValueError):
        BorderedMatrixSpec(size=3, b=1.0, a11=0.0, c=np.zeros(2))
    with pytest.raises(ValueError):
        BorderedMatrixSpec(size=0, b=1.0, a11=0.0, c=np.zeros(0))


@given(
    size=st.integers(min_value=2, max_value=8),
    b=st.floats(min_value=0.3, max_value=2.0),
    flip=st.sampled_from([-1.0, 1.0]),
    a11=st.floats(min_value=-2.0, max_value=2.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=150, deadline=None)
def test_bordered_det_matches_dense_lu(size, b, flip, a11, seed):
    c = np.random.default_rng(seed).uniform(-1.2, 1.2, size=size)
    spec = BorderedMatrixSpec(size=size, b=b * flip, a11=a11, c=c)
    dense = float(np.linalg.det(bordered_dense(spec)))
    assert bordered_det(spec) == pytest.approx(dense, rel=1e-9, abs=1e-11)


def test_cramer_identity_matrix_case():
    x = np.array([0.3, -1.2, 0.5])
    direct, ratio = cramer_ratio(np.eye(3), x, -x, np.array([1.0, 2.0, 3.0]), 0.25)
    assert direct == pytest.approx(ratio, abs=1e-12)
    assert direct == pytest.approx(1.0 * 0.3 - 2.0 * 1.2 + 3.0 * 0.5 + 0.25)


def test_cramer_zero_row_gives_one():
    mat = np.diag([2.0, 3.0])
    rhs = np.array([1.0, 1.0])
    direct, ratio = cramer_ratio(mat, np.linalg.solve(mat, -rhs), rhs, np.zeros(2), 1.0)
    assert direct == pytest.approx(1.0)
    assert ratio == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_cramer_random_instances(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 7))
    mat = rng.normal(size=(k, k)) + np.eye(k) * (1.0 + k)
    rhs = rng.normal(size=k)
    direct, ratio = cramer_ratio(
        mat, np.linalg.solve(mat, -rhs), rhs, rng.normal(size=k), float(rng.normal())
    )
    assert abs(direct - ratio) <= 1e-8 * (1.0 + abs(direct))


def test_cramer_rejects_singular_matrix():
    mat = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="singular"):
        cramer_ratio(mat, np.zeros(2), np.zeros(2), np.ones(2), 0.0)


def test_cramer_rejects_inconsistent_solution():
    with pytest.raises(ValueError, match="solve"):
        cramer_ratio(np.eye(2), np.ones(2), np.ones(2), np.ones(2), 0.0)


def test_taylor_gap_vanishing_increment():
    y = np.array([0.2, -0.4])
    assert taylor_gap(y, y) == pytest.approx(0.0, abs=1e-15)


def test_taylor_gap_endpoint_value():
    assert taylor_gap(np.array([1.0]), np.array([0.0])) == pytest.approx(1.0)


def test_taylor_gap_domain_errors():
    with pytest.raises(ValueError):
        taylor_gap(np.array([1.1]), np.array([0.0]))
    with pytest.raises(ValueError):
        taylor_gap(np.array([0.0]), np.array([1.0]))


@given(
    dim=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=100_000),
)
@settings(max_examples=200, deadline=None)
def test_taylor_gap_nonnegative(dim, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=dim)
    y *= rng.uniform(0.0, 0.99) / max(np.linalg.norm(y), 1e-12)
    x = rng.normal(size=dim)
    x *= rng.uniform(0.0, 1.0) / max(np.linalg.norm(x), 1e-12)
    assert taylor_gap(x, y) >= -1e-12


@given(
    dim=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=100_000),
)
@settings(max_examples=100, deadline=None)
def test_taylor_gap_small_only_near_equality(dim, seed):
    # strong concavity away from the sphere: tiny gap forces x near y
    rng = np.random.default_rng(seed)
    y = rng.normal(size=dim)
    y *= rng.uniform(0.0, 0.9) / max(np.linalg.norm(y), 1e-12)
    x = rng.normal(size=dim)
    x *= rng.uniform(0.0, 1.0) / max(np.linalg.norm(x), 1e-12)
    if taylor_gap(x, y) < 1e-9:
        assert np.linalg.norm(x - y) < 1e-4


def test_rotation_fixes_first_basis_vector():
    np.testing.assert_allclose(rotation_to_pole(np.array([1.0, 0.0, 0.0])), np.eye(3), atol=1e-15)


def test_rotation_antipodal_involution():
    v = np.array([-1.0, 0.0, 0.0, 0.0])
    q = rotation_to_pole(v)
    np.testing.assert_allclose(v @ q, [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(q @ q, np.eye(4), atol=1e-15)


def test_rotation_rejects_non_unit_input():
    with pytest.raises(ValueError):
        rotation_to_pole(np.array([0.5, 0.0]))


def test_rotation_rejects_a_non_finite_vector():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite unit vector"):
            rotation_to_pole(np.array([bad, 0.0, 0.0]))


@given(
    dim=st.integers(min_value=2, max_value=9),
    seed=st.integers(min_value=0, max_value=100_000),
)
@settings(max_examples=150, deadline=None)
def test_rotation_alignment_and_orthogonality(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim)
    norm = np.linalg.norm(v)
    if norm < 1e-8:
        v = np.zeros(dim)
        v[0] = -1.0
        norm = 1.0
    v = v / norm
    q = rotation_to_pole(v)
    e0 = np.zeros(dim)
    e0[0] = 1.0
    assert np.linalg.norm(v @ q - e0) < 1e-12
    assert np.linalg.norm(q.T @ q - np.eye(dim)) < 1e-12
    np.testing.assert_allclose(e0 @ q.T, v, atol=1e-12)
