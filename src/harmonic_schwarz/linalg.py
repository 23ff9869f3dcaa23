"""Small dense kernels used by the solver analysis and the geometry.

The moment-system Jacobian is a rank-one-bordered matrix: off the first
row and column its entries are -c_i * c_j.  Its determinant collapses to
three terms because every minor of the rank-one block of size >= 2
vanishes; ``bordered_det`` evaluates that closed form and
``bordered_dense`` builds the matrix itself so the two routes can be
checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BorderedMatrixSpec",
    "bordered_dense",
    "bordered_det",
    "cramer_ratio",
    "taylor_gap",
    "rotation_to_pole",
]


@dataclass(frozen=True)
class BorderedMatrixSpec:
    """Matrix b*I + A with A[0,0] = a11 and A[i,j] = -c[i]*c[j] elsewhere."""

    size: int
    b: float
    a11: float
    c: np.ndarray

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"matrix size must be >= 1, got {self.size}")
        c = np.ascontiguousarray(np.asarray(self.c, dtype=float))
        if c.shape != (self.size,):
            raise ValueError(f"c must have shape ({self.size},), got {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "c", c)


def bordered_dense(spec: BorderedMatrixSpec) -> np.ndarray:
    """Assemble the matrix entry by entry (reference route)."""
    mat = spec.b * np.eye(spec.size) - np.outer(spec.c, spec.c)
    mat[0, 0] = spec.b + spec.a11
    return mat


def bordered_det(spec: BorderedMatrixSpec) -> float:
    """Determinant of the bordered matrix in closed form.

    Minors of the rank-one block of size two or more vanish, so only the
    identity term, the trace term, and the 2x2 minors through entry
    (1,1) survive:

        det = b^p + b^{p-1} * (a11 - sum_{j>=2} c_j^2)
                  - b^{p-2} * (a11 + c_1^2) * sum_{j>=2} c_j^2.
    """
    p = spec.size
    if p == 1:
        return spec.b + spec.a11
    tail2 = float(spec.c[1:] @ spec.c[1:])
    trace_term = spec.a11 - tail2
    minor_term = -(spec.a11 + spec.c[0] ** 2) * tail2
    return spec.b**p + spec.b ** (p - 1) * trace_term + spec.b ** (p - 2) * minor_term


def cramer_ratio(A, x, b, c, c_last) -> tuple[float, float]:
    """Evaluate c.x + c_last two ways when A x + b = 0.

    Substituting x = -A^{-1} b turns the affine form into the ratio of a
    bordered determinant to det(A):

        c.x + c_last = det([[A, b], [c, c_last]]) / det(A).

    Returns the pair (direct value, determinant ratio) so callers can
    compare the routes; raises if A is near-singular or x does not solve
    the system.
    """
    A = np.asarray(A, dtype=float)
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    k = A.shape[0]
    if A.shape != (k, k) or x.shape != (k,) or b.shape != (k,) or c.shape != (k,):
        raise ValueError("shape mismatch: need A (k,k) and x, b, c of length k")
    norm_a = np.linalg.norm(A)
    det_a = float(np.linalg.det(A))
    if abs(det_a) <= 1e-12 * max(norm_a, 1.0):
        raise ValueError(f"matrix too close to singular: det={det_a}")
    residual = np.linalg.norm(A @ x + b)
    allowed = 1e-10 * (norm_a * np.linalg.norm(x) + np.linalg.norm(b) + 1.0)
    if residual > allowed:
        raise ValueError(f"x does not solve A x + b = 0: residual {residual}")
    bordered = np.zeros((k + 1, k + 1))
    bordered[:k, :k] = A
    bordered[:k, k] = b
    bordered[k, :k] = c
    bordered[k, k] = float(c_last)
    direct = float(c @ x + float(c_last))
    ratio = float(np.linalg.det(bordered) / det_a)
    return direct, ratio


def taylor_gap(x, y) -> float:
    """Second-order concavity gap of z -> sqrt(1 - |z|^2) between x and y.

    Equals sqrt(1-|y|^2) - sqrt(1-|x|^2) - <x - y, y>/sqrt(1-|y|^2) and
    is nonnegative for every |x| <= 1, |y| < 1 because the function is
    concave; the value is the (sign-flipped) integral remainder of the
    first-order Taylor expansion at y.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError(f"x and y must share a shape, got {x.shape} vs {y.shape}")
    xx = float(x @ x)
    yy = float(y @ y)
    if xx > 1.0 + 1e-12:
        raise ValueError(f"need |x| <= 1, got |x|^2={xx}")
    if yy >= 1.0 - 1e-12:
        raise ValueError(f"need |y| < 1, got |y|^2={yy}")
    root_y = np.sqrt(1.0 - yy)
    root_x = np.sqrt(max(1.0 - xx, 0.0))
    return float(root_y - root_x - (x - y) @ y / root_y)


def rotation_to_pole(v) -> np.ndarray:
    """Orthogonal Q with v Q = e0 (row convention), deterministically.

    Built from Householder reflections: for v1 <= 0 a single reflection
    through v - e0 (well conditioned there, and for v = -e0 it reduces
    to the fixed involution diag(-1, 1, ..., 1)); for v1 > 0 the
    reflection through v + e0 sends v to -e0 and is followed by that
    same involution.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("v must be a nonempty vector")
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= 1e-12:  # a NaN fails this test too
        raise ValueError(f"v must be a finite unit vector, got v={v}, |v|={norm}")
    d = v.size
    e0 = np.zeros(d)
    e0[0] = 1.0
    if v[0] <= 0.0:
        u = v - e0
        return np.eye(d) - 2.0 * np.outer(u, u) / (u @ u)
    u = v + e0
    h1 = np.eye(d) - 2.0 * np.outer(u, u) / (u @ u)
    h2 = np.eye(d)
    h2[0, 0] = -1.0
    return h1 @ h2
