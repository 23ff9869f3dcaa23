"""Two dense kernels: a closed-form determinant and a rotation.

The mean block of the moment-system Jacobian is a rank-one-bordered
matrix: off its first row and column its entries are -c_i * c_j.
``bordered_det`` evaluates its three-term determinant, which the
acceptance suite checks against ``jacobian_RI``.  ``rotation_to_pole``
turns a direction e onto the first axis, which reduces a directional
bound to the axis case.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bordered_det", "rotation_to_pole"]


def bordered_det(b: float, a11: float, c) -> float:
    """Determinant of b*I + A with A[0,0] = a11 and A[i,j] = -c[i]*c[j]
    elsewhere, of size p = len(c), in closed form.

    Minors of the rank-one block of size two or more vanish, so only the
    identity term, the trace term, and the 2x2 minors through entry
    (1,1) survive:

        det = b^p + b^{p-1} * (a11 - sum_{j>=2} c_j^2)
                  - b^{p-2} * (a11 + c_1^2) * sum_{j>=2} c_j^2.

    Raises ``ValueError`` unless c is a nonempty vector.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise ValueError(f"c must be a nonempty vector, got shape {c.shape}")
    p = c.size
    if p == 1:
        return b + a11
    tail2 = float(c[1:] @ c[1:])
    trace_term = a11 - tail2
    minor_term = -(a11 + c[0] ** 2) * tail2
    return b**p + b ** (p - 1) * trace_term + b ** (p - 2) * minor_term


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
