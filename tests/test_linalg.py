"""Dense kernels: the closed-form bordered determinant and the pole rotation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmonic_schwarz import bordered_det, rotation_to_pole


def test_bordered_det_diagonal_case():
    assert bordered_det(1.7, -0.3, np.zeros(4)) == pytest.approx(1.7**3 * (1.7 - 0.3), rel=1e-14)


def test_bordered_det_two_by_two_example():
    # b = 1, a11 = 0, c = (1, 1): the matrix [[1, -1], [-1, 0]]
    assert bordered_det(1.0, 0.0, np.array([1.0, 1.0])) == pytest.approx(-1.0, abs=1e-15)
    assert np.linalg.det(np.array([[1.0, -1.0], [-1.0, 0.0]])) == pytest.approx(-1.0, abs=1e-12)


def test_bordered_det_size_one():
    assert bordered_det(0.4, 0.25, np.array([2.0])) == pytest.approx(0.65)


def test_bordered_det_rejects_an_empty_or_non_vector_c():
    for bad in (np.zeros(0), np.zeros((2, 2)), 1.0):
        with pytest.raises(ValueError, match="nonempty vector"):
            bordered_det(1.0, 0.0, bad)


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
