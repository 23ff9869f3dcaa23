"""Lagrange-multiplier moment system for the extremal boundary data.

A harmonic map of the unit ball B^n into B^{m+1} with prescribed center
value (a, b), |a|^2 + b^2 < 1, b >= 0, has a unique extremal boundary
datum for the first-coordinate growth functional.  Its m-vector part is
driven by the latitude kernel

    g(t) = (1 + r^2 - 2 r t)^{-n/2},  t = <omega, N>,

through a field that is affine in g along the first coordinate.  The
datum is the unit vector

    (u, v) = (g(t) l - lam, mu) / |(g(t) l - lam, mu)|,  l = (1, 0, ..., 0),

with multipliers lam in R^m and mu > 0 fixed by the moment conditions
int u dsigma = a and int v dsigma = b.  On the b = 0 branch mu = 0, and
with a vanishing multiplier tail the datum is u_1 = sign(t - t*).
Both branches are the optimality conditions of one convex dual: the
multipliers minimize

    q(lam, mu) = lam . a - mu b + int |(g l - lam, mu)| dsigma.

q is invariant under rotations of (lam_2..lam_m, mu) that rotate
(a_2..a_m, b) along, so only c1 = a_1 and rho = |(a_2..a_m, b)| matter.
With x = lam_1, y = |(lam_2..lam_m, mu)| and d = g(t) - x the solver
minimizes

    q(x, y) = x (c1 - 1) - y rho + int (sqrt(d^2 + y^2) - d) dsigma,

where the term -x is exact (int g dsigma = 1 / (1 - r^2)) and keeps the
integrand bounded as r -> 1.  The gradient (c1 - R_1, y J - rho),
J = int dsigma / R, is the moment residual and the Hessian has three
latitude integrals, so one damped Newton iteration with an Armijo line
search covers both branches.  Its minimizer rotates back to
lam_j = -y a_j / rho and mu = y b / rho.  The rho = 0 face is solved
apart: the datum is then sign(t - t*) and t* fixes the cap mass; so is
rho below 1e-300, whose datum equals the face's to rounding.  Small
rho makes the datum turn over inside a thin latitude layer around the
crossing g(t) = x that no fixed Gauss rule resolves, so every iterate
integrates that layer on one panel of its own, sinh-mapped in the log
of the kernel level (``Layer``), and, once r > 0.95, grades the rest
toward the kernel's pole (1 - r)^2 / (2r) beyond t = 1.  A solution
carries its datum's breakpoints and layer, from which ``moments_RI`` and
``jacobian_RI`` place their own nodes.

The minimizer takes K such duals at once, for centers that share n and
r (``solve_batch``; an envelope's rotated centers are one batch, and
``solve_positive_b`` and ``solve_zero_b`` are batches of one).  Each
round evaluates the current candidates of all rows still iterating in
one pass over their concatenated nodes: rows on the plain rule share
its nodes and g(t), rows with a layer bring their own.  Every integral
is its row's own segment sum (``np.add.reduceat`` sums each segment
alone, where a BLAS product's bits may depend on the rows beside it),
the Newton step solves the row's 2x2 Hessian in closed form and the
Armijo search is the row's own, so a row's bits and its evaluation
count are the same in any batch.
Negative b is never solved directly: ``solve_batch`` solves |b| and
``datum`` gives the last component the sign of b.  ``datum`` is the one
writer of the data, for many solutions at once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import SolverError
from .sphere import (
    DEFAULT_ORDER,
    QuadratureRule,
    _base_jacobi,
    _segment_rule,
    _zonal_constant,
    segmented_nodes,
    zonal_rule,
)

MAX_DIMENSION = 16
MAX_TARGET_DIM = 8

__all__ = [
    "ProblemSpec",
    "LagrangeSolution",
    "Layer",
    "kernel_profile",
    "kernel_inverse",
    "datum",
    "moments_RI",
    "jacobian_RI",
    "solve_batch",
    "solve_positive_b",
    "solve_zero_b",
]


@dataclass(frozen=True)
class ProblemSpec:
    """Instance data: domain dimension n, target dimension m+1, radius r,
    and the prescribed center value (a, b) with |a|^2 + b^2 < 1."""

    n: int
    m: int
    r: float
    a: np.ndarray
    b: float

    def __post_init__(self):
        n, m = _integer("n", self.n), _integer("m", self.m)
        if not 2 <= n <= MAX_DIMENSION:
            raise ValueError(f"need 2 <= n <= {MAX_DIMENSION}, got n={n}")
        if not 1 <= m <= MAX_TARGET_DIM:
            raise ValueError(f"need 1 <= m <= {MAX_TARGET_DIM}, got m={m}")
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"need 0 < r < 1, got r={self.r}")
        a = np.ascontiguousarray(np.atleast_1d(np.asarray(self.a, dtype=float)))
        if a.shape != (m,):
            raise ValueError(f"a must have shape ({m},), got {a.shape}")
        if not (np.all(np.isfinite(a)) and math.isfinite(self.b)):
            raise ValueError(f"center value must be finite, got a={a}, b={self.b}")
        norm2 = float(a @ a) + float(self.b) ** 2
        if norm2 >= 1.0:
            raise ValueError(
                f"center value must lie inside the ball: |a|^2 + b^2 = {norm2} >= 1"
            )
        a.flags.writeable = False
        for name, value in (("n", n), ("m", m), ("r", float(self.r)), ("a", a), ("b", float(self.b))):
            object.__setattr__(self, name, value)


def _integer(name: str, value) -> int:
    """value as an int; ``ValueError`` unless it is an integer (NumPy's too)."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {name}={value!r}")
    return int(value)


@dataclass(frozen=True)
class Layer:
    """The datum's turnover layer: a rule for [lo, hi], exact g(t) - level at its nodes."""

    level: float
    lo: float
    hi: float
    nodes: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray


@dataclass(frozen=True)
class LagrangeSolution:
    """Solved multipliers plus convergence diagnostics.

    ``mu`` is None on the b = 0 branch, ``jump_point`` is the latitude
    of the sign jump and is only set when that branch degenerates to
    two-valued data (zero multiplier tail).  ``dual_point`` is the
    minimizer (x, y) = (lam_1, |(lam_2..lam_m, mu)|) of the reduced dual
    (y = rho on the rho = 0 face), whose y is the datum's scale.
    ``iterations`` counts evaluations of the reduced dual, or of the cap
    mass on that face; ``newton_steps`` counts the Newton steps accepted
    among them (in t* on the face).  ``breakpoints`` and ``layer`` are
    the datum's (empty, None if not needed): those of the rule the solve
    ended on, plus the crossing g(t) = lam_1 of a smooth b = 0 datum
    without a layer.  Its quadratures take both:
    ``segmented_nodes(rule, breakpoints, layer)``.
    """

    branch: str
    lam: np.ndarray
    mu: float | None
    residual: float
    iterations: int
    newton_steps: int
    dual_point: tuple[float, float]
    jump_point: float | None = None
    breakpoints: tuple[float, ...] = ()
    layer: Layer | None = None
    warnings: tuple[str, ...] = field(default_factory=tuple)


def kernel_profile(r: float, n: int, t):
    """Latitude profile (1 + r^2 - 2 r t)^{-n/2} of the axis kernel.

    The base is computed as (1-r)^2 + 2r(1-t), which is the same number
    without the near-pole cancellation of the textbook arrangement.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"need 0 <= r < 1, got r={r}")
    t = np.asarray(t, dtype=float)
    out = ((1.0 - r) ** 2 + 2.0 * r * (1.0 - t)) ** (-0.5 * n)
    return float(out) if out.ndim == 0 else out


def kernel_inverse(r: float, n: int, y: float) -> float:
    """Latitude where the axis kernel attains y > 0 (strictly increasing in t)."""
    if not (0.0 < r < 1.0 and y > 0.0):
        raise ValueError(f"need 0 < r < 1 and y > 0, got r={r}, y={y}")
    return (1.0 + r * r - y ** (-2.0 / n)) / (2.0 * r)


def _crossing(spec: ProblemSpec, level: float) -> float | None:
    """Latitude t* with g(t*) = level, or None when g takes it at no latitude
    of (-1, 1) (the rounded inverse decides next to a pole)."""
    t_star = kernel_inverse(spec.r, spec.n, level) if level > 0.0 else -1.0
    return t_star if -1.0 < t_star < 1.0 else None


def _axis_cap_breakpoints(rho: float) -> tuple:
    """Graded latitudes packing the polar cap of width 1 - rho.

    The axis kernel kernel_profile(rho, n, t) concentrates there as
    rho -> 1 and a plain Gauss rule goes blind below cap width ~5e-2;
    geometric panels keep the panel-size to pole-distance ratio bounded,
    so each panel stays spectrally accurate.  The kernel's branch point
    lies (1-rho)^2/(2rho) past t = 1, so the grading continues below the
    cap width until the panels resolve that scale too: ``_pole_grading``
    toward t = 1, whose first latitude (4 gaps out) lies that scale, at
    least 1e-13, from the pole.  Empty while the plain rule suffices.
    """
    d = 1.0 - rho
    if d >= 0.05:
        return ()
    return tuple(sorted(_pole_grading(1.0, max(d * d / (2.0 * rho), 1e-13) / 4.0)))


def _layer_rule(spec: ProblemSpec, x: float, s: float, t_star: float):
    """(breakpoints, layer) of the rule integrating the dual at (x, s).

    The datum turns over where g crosses x, within eps = s / g'(t*) of
    t* = g^{-1}(x).  Once eps < 5e-2 (too thin for a plain Gauss rule)
    the layer gets the panel [t* - h, t* + h], h half the distance to the
    nearer pole, and the far side is graded toward that pole (its weight
    is singular for even n).  The panel is integrated in the log-level
    v = log(g / x), where d = g - x = x expm1(v) is exact at any s and
    t(v) is entire, with no cap breakpoints (g's pole is at v = infinity):
    v = +-(s / x) sinh(tau), 16 Gauss points on tau-pieces at most 3 long
    (Johnston and Elliott), so the node count grows as log(1 / s).
    ``t_star`` is the point's entry of ``_layer_crossings``, not NaN.
    """
    r, n = spec.r, spec.n
    cap = _axis_cap_breakpoints(r)
    h = 0.5 * (1.0 - abs(t_star))
    grade = _pole_grading(t_star, 3.0 * h)  # from the panel's far edge on
    if h < 5e-15:  # t* within rounding of the pole: no panel fits between them
        return tuple(sorted({*cap, *grade})), None
    lo, hi = t_star - h, t_star + h
    scale, base_x, tau, dtau = s / x, x ** (-2.0 / n), [], []
    for end in (lo, hi):
        top = math.asinh(abs(math.log(kernel_profile(r, n, end) / x)) / scale)
        u, wu = _unit_pieces(math.ceil(top / 3.0))
        tau.append(top * u)
        dtau.append(top * wu)
    tau = np.concatenate((-tau[0][::-1], tau[1]))
    v, dv = scale * np.sinh(tau), scale * np.cosh(tau) * np.concatenate((dtau[0][::-1], dtau[1]))
    base = base_x * np.exp((-2.0 / n) * v)
    dn, ds = (base - (1.0 - r) ** 2) / (2.0 * r), ((1.0 + r) ** 2 - base) / (2.0 * r)  # 1 -+ t
    w = dv * base * (dn * ds) ** (0.5 * (n - 3)) * (_zonal_constant(n) / (n * r))
    layer = Layer(x, lo, hi, 1.0 - dn, w, x * np.expm1(v))
    return tuple(sorted({*(c for c in cap if not lo <= c <= hi), *grade, lo, hi})), layer


def _pole_grading(t_star: float, gap: float) -> list:
    """Latitudes at distances gap 4^k (k >= 1, below 0.4) from the pole on
    t*'s side: they grade a panel whose edge lies ``gap`` short of that pole
    (its weight is singular for even n) at a bounded width to distance ratio."""
    out, d = [], 4.0 * max(gap, 1e-15)
    while d < 0.4:
        out.append(math.copysign(1.0 - d, t_star))
        d *= 4.0
    return out


def _layer_crossings(spec: ProblemSpec, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Crossings t* = g^{-1}(x) of the points (x, s) whose layer, of width
    s / g'(t*), is below 0.05 and so takes a panel of its own; NaN where
    g does not cross x inside (-1, 1) or the plain rule resolves the layer."""
    r, n = spec.r, spec.n
    # the kernel's base (1 + r^2 - 2 r t) is x^(-2/n) at t*, where
    # g' = n r g / base; g >= (1 + r)^-n > 1e-5, so a level below 1e-300 crosses nowhere
    base = np.maximum(x, 1e-300) ** (-2.0 / n)
    t_star = (1.0 + r * r - base) / (2.0 * r)
    thin = s < (0.05 * n * r) * x / base
    return np.where((-1.0 < t_star) & (t_star < 1.0) & thin, t_star, math.nan)


@lru_cache(maxsize=None)
def _unit_pieces(pieces: int):
    """16-point Gauss-Legendre rule on [0, 1] cut into ``pieces`` equal pieces."""
    gx, gw = _base_jacobi(16, 0.0, 0.0)
    u = ((2.0 * np.arange(pieces) + 1.0)[:, None] + gx).ravel() / (2.0 * pieces)
    return u, np.tile(gw, pieces) / (2.0 * pieces)


def _norm(d: np.ndarray, s) -> np.ndarray:
    """hypot(d, s) as sqrt(d^2 + s^2), and as ``hypot`` itself only where
    that squares out of the normal range (next to the crossing of a tiny
    s, or past 1e154): each entry is its own, whatever the array."""
    square = d * d + s * s
    big_r = np.sqrt(square)
    if not (square.min(initial=1.0) > 1e-290 and square.max(initial=1.0) < math.inf):
        off = ~((square > 1e-290) & (square < math.inf))
        big_r[off] = np.hypot(d, s)[off]
    return big_r


def _segment_sums(a: np.ndarray, starts) -> np.ndarray:
    """Sums of a over the segments of its last axis that begin at
    ``starts``.  ``reduceat`` sums each segment alone, in an order set by
    the segment's own length, so a segment's bits do not depend on its
    neighbours (as a BLAS product's may on the rows beside it)."""
    return np.add.reduceat(a, starts, axis=-1)


def _field_integrals(g, w, layers, x, s):
    """Integrals of K fields, each on its own segment: the kernel values
    g[k] and weights w[k] at its nodes.

    Field k is (d, s[k]) with d = g(t) - x[k], exact from ``layers[k]`` on
    that layer's nodes, the last of the segment (rounded latitudes blur d
    once s < 1e-10).  With R = hypot(d, s) and the unit vector
    (u, sigma) = (d, s) / R it returns per segment int (R - d), int u,
    J = int 1 / R, P0 = int sigma^2 / R, P1 = int u sigma / R and
    P2 = int u^2 / R.  Nothing divides by s, so tiny s neither under- nor
    overflows.
    """
    sizes = [g_k.size for g_k in g]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    d = np.concatenate(g) - np.repeat(x, sizes)
    for k, layer in enumerate(layers):
        if layer is not None:
            d[ends[k] - layer.offsets.size : ends[k]] = layer.offsets + (layer.level - x[k])
    s_at = np.repeat(s, sizes)
    big_r = _norm(d, s_at)
    inv = 1.0 / big_r
    u = d * inv
    w = np.concatenate(w)
    wi = w * inv
    abs_d = np.abs(d)  # R - d = s^2 / (R + |d|) + (|d| - d): no cancellation on either side
    excess = s_at * (s_at / (big_r + abs_d)) + (abs_d - d)
    sigma = s_at * inv
    w_sigma = wi * sigma
    sums = lambda v: _segment_sums(v, starts)  # one product alive at a time
    return sums(w * excess), sums(w * u), sums(wi), sums(w_sigma * sigma), sums(w_sigma * u), sums(wi * u * u)


def _row_integrals(spec: ProblemSpec, lam, mu: float, rule: QuadratureRule, breakpoints=(), layer=None):
    """``_field_integrals`` of the one field (g(t) l - lam, mu), as floats,
    with lam as an array and the field's scale s = |(lam_2..lam_m, mu)|.

    The field is integrated on ``segmented_nodes(rule, breakpoints,
    layer)``, cut at the crossing g(t) = lam_1 when mu = 0 and there are
    neither breakpoints nor a layer.  Raises ``ValueError`` unless lam has
    shape (m,) and lam and mu are finite.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (spec.m,) or not (np.all(np.isfinite(lam)) and math.isfinite(mu)):
        raise ValueError(f"need a finite lam of shape ({spec.m},) and a finite mu, got lam={lam!r}, mu={mu}")
    if mu == 0.0 and layer is None and not breakpoints:
        t_star = _crossing(spec, float(lam[0]))
        breakpoints = () if t_star is None else (t_star,)
    t, w = segmented_nodes(rule, breakpoints, layer)
    s = math.hypot(mu, *lam[1:])
    sums = _field_integrals([kernel_profile(spec.r, spec.n, t)], [w], [layer], lam[:1], np.array([s]))
    return lam, s, [float(v[0]) for v in sums]


def datum(specs, sols, t, sizes=None) -> np.ndarray:
    """The extremal data of the solutions ``sols`` of ``specs``, which share
    n, m and r, at latitudes t, shape (m+1, len(t)).

    Solution k takes the k-th consecutive segment of t, ``sizes[k]`` long
    (all of t when ``sizes`` is None).  Its datum is the unit vector of
    (g(t) - lam_1, -lam_2..-lam_m, mu), with mu = 0 on the b = 0 branch and
    the last component carrying the sign of spec.b (a solution of the |b|
    problem serves negative b); sign(t - t*) on the first component when
    the solution has a jump point; and the constant (a, b) when it is None.
    Its norm is taken as hypot(g(t) - lam_1, y) with y from
    ``sol.dual_point``, which |(lam_2..lam_m, mu)| equals up to rounding.
    Every entry is computed on its own, so a segment's bits do not depend
    on the others.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    sizes = [t.size] if sizes is None else sizes
    out = np.zeros((specs[0].m + 1, t.size))
    smooth, params, end = [], [], 0
    for spec, sol, size in zip(specs, sols, sizes):
        seg, end = slice(end, end + size), end + size
        if sol is None:
            out[:, seg] = np.append(spec.a, spec.b)[:, None]
        elif sol.jump_point is not None:
            out[0, seg] = np.sign(t[seg] - sol.jump_point)
        else:
            smooth.append(seg)
            lam, mu = sol.lam.tolist(), math.copysign(sol.mu or 0.0, spec.b)
            params.append((lam[0], sol.dual_point[1], *(-v for v in lam[1:]), mu))
    if not smooth:
        return out
    lengths = [seg.stop - seg.start for seg in smooth]
    on = slice(None) if len(smooth) == len(sizes) else np.r_[tuple(smooth)]
    rows = np.repeat(np.array(params).T, lengths, axis=1)  # x, y, then the numerators of u_2..u_m, v
    d = kernel_profile(specs[0].r, specs[0].n, t[on]) - rows[0]
    big_r = _norm(d, rows[1])
    out[0, on] = d / big_r
    out[1:, on] = rows[2:] * (1.0 / big_r)
    return out


def moments_RI(spec: ProblemSpec, lam, mu: float, rule: QuadratureRule, breakpoints=(), layer=None):
    """Constraint moments (R, I) of the field at (lam, mu), mu >= 0.

    With J = int 1 / R of ``_field_integrals``, R_1 = int u, and the
    constant tail and mass components of the field factor out of one
    integral: R_j = -lam_j J and I = mu J, formed without dividing by mu.
    The nodes are ``segmented_nodes(rule, breakpoints, layer)``, a
    solution's ``(rule, sol.breakpoints, sol.layer)``.  At mu = 0, the
    b = 0 branch, I = 0 and the datum jumps or bends where g(t) crosses
    lam_1, where the rule is cut when no breakpoints or layer are given.
    """
    if not mu >= 0.0:
        raise ValueError(f"need mu >= 0, got mu={mu}")
    lam, _, (_, moment, inv_r, *_) = _row_integrals(spec, lam, mu, rule, breakpoints, layer)
    return np.concatenate(([moment], -lam[1:] * inv_r)), mu * inv_r


def jacobian_RI(spec: ProblemSpec, lam, mu: float, rule: QuadratureRule, breakpoints=(), layer=None) -> np.ndarray:
    """Jacobian of (R, I) with respect to (lam, mu > 0), shape (m+1, m+1).

    With R = hypot(g - lam_1, s), s = |(lam_2..lam_m, mu)|, l_j = lam_j / s
    and z = mu / s (|l|^2 + z^2 = 1), the entries reduce to the three
    integrals P0 = int s^2 / R^3, P1 = int s (g - lam_1) / R^3 and
    P2 = int (g - lam_1)^2 / R^3 of ``_field_integrals``, each formed
    without dividing by mu, on the nodes ``moments_RI`` takes and, in a
    ``layer``, from its exact g - lam_1:

        dR_1/dlam_1 = -P0,   dR_1/dlam_j = dR_j/dlam_1 = -l_j P1,
        dR_j/dlam_i = l_i l_j P0 - [i = j] (P0 + P2)      (i, j >= 2),
        dR_1/dmu = -z P1,    dR_j/dmu = -dI/dlam_j = l_j z P0,
        dI/dlam_1 = z P1,    dI/dmu = P2 + |l|^2 P0.
    """
    if not mu > 0.0:
        raise ValueError(f"need mu > 0, got mu={mu}")
    m = spec.m
    lam, s, (*_, p0, p1, p2) = _row_integrals(spec, lam, mu, rule, breakpoints, layer)
    tail, zeta = lam[1:] / s, mu / s
    jac = np.empty((m + 1, m + 1))
    jac[0, 0] = -p0
    jac[0, 1:m] = jac[1:m, 0] = -tail * p1
    jac[0, m] = -zeta * p1
    jac[1:m, 1:m] = np.outer(tail, tail) * p0 - np.eye(m - 1) * (p0 + p2)
    jac[1:m, m] = tail * zeta * p0
    jac[m, 0] = zeta * p1
    jac[m, 1:m] = -tail * zeta * p0
    jac[m, m] = p2 + float(tail @ tail) * p0
    return jac


# --------------------------------------------------------------------------
# the reduced dual
# --------------------------------------------------------------------------


def _conditioning_warnings(spec: ProblemSpec) -> list[str]:
    out = []
    b = abs(spec.b)
    cap = np.sqrt(1.0 - float(spec.a @ spec.a))
    if b > 0.0 and cap - b < 1e-8:
        out.append(
            "b is within 1e-08 of its ceiling sqrt(1 - |a|^2); "
            "the moment system is near-degenerate"
        )
    if 0.0 < b < 1e-8:
        out.append(
            "b is positive but below 1e-08; staying on the positive branch "
            "as requested, though the b = 0 branch is numerically adjacent"
        )
    return out


def _zero_b_warnings(spec: ProblemSpec, rho: float, bends: bool) -> list[str]:
    out = []
    if 1.0 - float(np.linalg.norm(spec.a)) < 1e-6:
        out.append("|a| is within 1e-06 of the sphere; multipliers are boundary-adjacent")
    if bends and rho < 1e-4:
        out.append(
            "|tail of a| below 1e-04: the datum is close to the two-valued "
            "degenerate one and quadrature accuracy degrades"
        )
    return out


# Residual tolerances of the two branches: a solve that ends above its
# branch's raises ``SolverError`` (the Newton iteration runs to 1e-13).
_POSITIVE_B_TOL = 1e-10
_ZERO_B_TOL = 1e-8


def _check_residual(residual: float, tol: float, evaluations: int) -> None:
    if not residual < tol:
        raise SolverError(
            f"moment solve stalled at residual {residual:.3e} (tol {tol:.1e})",
            residual=residual,
            iterations=evaluations,
        )


def _face_crossing(n: int, c1: float):
    """Latitude t* with Rcal_1 = sigma{t > t*} - sigma{t < t*} = c1.

    This is the optimum of the dual's rho = 0 face, where the datum is
    the sign of t - t*.  Newton in t, guarded by bisection; the
    derivative is twice the latitude density c_n (1 - t^2)^{(n-3)/2}.
    The smaller cap's mass comes from a Gauss-Jacobi rule mapped onto
    it, whose weight absorbs the density's endpoint factor; the factor
    left is analytic well beyond the cap, so order 32 already gives the
    mass to rounding and costs no full-order rule build.  Returns
    (t*, evaluations, Newton steps taken).
    """
    density, p = 2.0 * _zonal_constant(n), 0.5 * (n - 3)
    lo, hi = -1.0, 1.0
    t = -c1  # exact at n = 3, where the density is flat
    steps = 0
    for evaluations in range(1, 100):
        if t <= 0.0:
            excess = 1.0 - 2.0 * float(_segment_rule(n, 32, -1.0, t)[1].sum()) - c1
        else:
            excess = 2.0 * float(_segment_rule(n, 32, t, 1.0)[1].sum()) - 1.0 - c1
        if excess == 0.0:
            break
        if excess > 0.0:
            lo = t
        else:
            hi = t
        step = excess / (density * (1.0 - t * t) ** p)
        if abs(step) <= 1e-15:
            break
        nxt = t + step
        if lo < nxt < hi:
            steps += 1
        else:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                break
        t = nxt
    return t, evaluations, steps


# Rows evaluated in one pass: bounds the pass's temporaries (about a dozen
# arrays of this many rows times 512-1,100 nodes) however many are solved.
BATCH_ROWS = 64


def _dual_terms(spec: ProblemSpec, rule: QuadratureRule, c1, rho, x, y):
    """Terms of K reduced duals at the points (x, y), from arrays of shape (K,).

    Returns the rows (q, dq/dx, dq/dy and the Hessian's xx, xy and yy
    entries), shape (6, K), and each point's (breakpoints, layer) from
    ``_layer_rule`` at the crossing g(t) = x and the kernel's pole.
    Points on the plain rule, segmented only at the direction-independent
    cap breakpoints, share its nodes and g(t), computed once; a point with
    a layer panel takes its own.  All points are integrated in one
    ``_field_integrals`` pass over their concatenated nodes, each its own
    segment, at the field's scale y; in its integrals the gradient is
    (c1 - int u, y J - rho) and the Hessian [[P0, P1], [P1, P2]].  More
    than ``BATCH_ROWS`` points take several passes, which changes no bit.
    """
    if x.size > BATCH_ROWS:
        parts = [
            _dual_terms(spec, rule, *(v[k : k + BATCH_ROWS] for v in (c1, rho, x, y)))
            for k in range(0, x.size, BATCH_ROWS)
        ]
        return np.concatenate([p[0] for p in parts], axis=1), [row_rule for p in parts for row_rule in p[1]]
    r, n = spec.r, spec.n
    cap = _axis_cap_breakpoints(r)
    plain_t, plain_w = segmented_nodes(rule, cap)
    plain_g = None
    rules, g, w = [], [], []
    for k, t_star in enumerate(_layer_crossings(spec, x, y).tolist()):
        if math.isnan(t_star):
            if plain_g is None:
                plain_g = kernel_profile(r, n, plain_t)
            rules.append((cap, None))
            g.append(plain_g)
            w.append(plain_w)
        else:
            breaks, layer = _layer_rule(spec, float(x[k]), float(y[k]), t_star)
            t, w_k = segmented_nodes(rule, breaks, layer)
            rules.append((breaks, layer))
            g.append(kernel_profile(r, n, t))
            w.append(w_k)
    excess, moment, inv_r, p0, p1, p2 = _field_integrals(g, w, [layer for _, layer in rules], x, y)
    q = x * (c1 - 1.0) - y * rho + excess
    return np.array([q, c1 - moment, y * inv_r - rho, p0, p1, p2]), rules


def _minimize_dual(spec, rule, c1, rho, x, y):
    """Minimize K reduced duals, of the centers (c1, rho), from the points
    (x, y); arrays of shape (K,).

    Damped Newton with Armijo backtracking on q, for every row alone: the
    step solves the row's 2x2 Hessian in closed form and may shrink y to no
    less than a tenth, so y stays positive and still walks down to the tiny
    optimum of near-degenerate centers.  Once q no longer resolves the step
    (alpha * decrement below 1e-12 |q|; at b ~ 1e-9 q moves by ~1e-18) a
    decrease of the row's largest gradient entry is accepted instead.  A
    row stops when that entry is below 1e-13, after 100 steps, 30
    halvings or a step that makes no progress.  Each round evaluates the
    candidates of all open rows in one ``_dual_terms`` call, so a row's
    bits and evaluation count do not depend on K or on its neighbours.
    The gradient is the moment residual.  Returns (x, y, the terms at
    (x, y), each row's (breakpoints, layer), evaluations, Newton steps).
    """
    x, y = np.array(x, dtype=float), np.array(y, dtype=float)
    terms, rules = _dual_terms(spec, rule, c1, rho, x, y)
    count = x.size
    evaluations, steps, halvings = (np.zeros(count, dtype=int) for _ in range(3))
    evaluations += 1
    step, alpha, decrement, size = np.zeros((2, count)), np.ones(count), np.zeros(count), np.zeros(count)
    searching = np.zeros(count, dtype=bool)

    def newton(rows):
        # the Newton step of each row, or the end of its iteration
        _, g0, g1, h00, h01, h11 = terms[:, rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            det = h00 * h11 - h01 * h01
            dx, dy = (h01 * g1 - h11 * g0) / det, (h01 * g0 - h00 * g1) / det
            dec = -(g0 * dx + g1 * dy)
            alpha[rows] = np.where(dy >= 0.0, 1.0, np.minimum(1.0, 0.9 * y[rows] / -dy))
        size[rows] = np.maximum(np.abs(g0), np.abs(g1))
        searching[rows] = (size[rows] > 1e-13) & (dec > 0.0) & (dec < np.inf) & (steps[rows] < 100)
        step[:, rows], decrement[rows], halvings[rows] = (dx, dy), dec, 0

    newton(np.arange(count))
    while searching.any():
        rows = np.flatnonzero(searching)
        cx = x[rows] + alpha[rows] * step[0, rows]
        cy = y[rows] + alpha[rows] * step[1, rows]
        cand, cand_rules = _dual_terms(spec, rule, c1[rows], rho[rows], cx, cy)
        evaluations[rows] += 1
        q, progress = terms[0, rows], alpha[rows] * decrement[rows]
        accept = (cand[0] <= q - 1e-4 * progress) | (
            (progress < 1e-12 * np.abs(q)) & (np.maximum(np.abs(cand[1]), np.abs(cand[2])) < size[rows])
        )
        took = rows[accept]
        x[took], y[took], terms[:, took] = cx[accept], cy[accept], cand[:, accept]
        for k, j in zip(took.tolist(), np.flatnonzero(accept).tolist()):
            rules[k] = cand_rules[j]
        steps[took] += 1
        newton(took)
        back = rows[~accept]
        alpha[back] *= 0.5
        halvings[back] += 1
        searching[back[halvings[back] >= 30]] = False
    return x, y, terms, rules, evaluations, steps


def _residual(terms, spread):
    """The full moment system's residual from the dual's gradient, whose
    y-entry spreads over the center's components perp_j as perp_j / rho."""
    return np.maximum(np.abs(terms[1]), np.abs(terms[2]) * spread)


def _face_level(spec: ProblemSpec) -> float:
    """Kernel level g(t*) at the rho = 0 optimum: the dual's starting x."""
    t_star = _face_crossing(spec.n, float(spec.a[0]))[0]
    return float(kernel_profile(spec.r, spec.n, t_star))


# Centers with rho below this are solved on the rho = 0 face: their datum's
# turnover scale y ~ rho g'(t*) / log can be subnormal, where 1 / R overflows,
# and it differs from sign(t - t*) only on a set of measure ~ y / g'(t*).
_FACE_RHO = 1e-300


def _solve_face(spec: ProblemSpec, rule: QuadratureRule):
    """(lam, t*, breakpoints, residual against (a, |b|), evaluations, Newton
    steps) of the rho = 0 face, lam = (g(t*), 0, ..., 0).

    The residual integrates the sign datum with t* as a breakpoint and, when
    t* lies within 0.1 of a pole, the panel across t* graded toward that
    pole, whose latitude weight is singular for even n; the datum's later
    quadratures take the same breakpoints.
    """
    t_star, evaluations, steps = _face_crossing(spec.n, float(spec.a[0]))
    t_star = float(t_star)
    lam = np.zeros(spec.m)
    lam[0] = kernel_profile(spec.r, spec.n, t_star)
    breaks = tuple(sorted({t_star, *_pole_grading(t_star, 1.0 - abs(t_star))}))
    residual = max(float(np.abs(moments_RI(spec, lam, 0.0, rule, breaks)[0] - spec.a).max()), abs(spec.b))
    return lam, t_star, breaks, residual, evaluations, steps


def _solve(specs, rule) -> list[LagrangeSolution]:
    """Solutions of centers sharing n and r: b > 0 branch for |b| unless b = 0.

    Face centers (rho below 1e-300) solve for t* alone; all others
    minimize their reduced duals in one ``_minimize_dual`` call, started
    at the face optimum x = g(t*), y = rho x.  Raises ``SolverError`` for
    the first center, in order, whose residual misses its branch's
    tolerance.
    """
    if rule is None:
        rule = zonal_rule(specs[0].n, DEFAULT_ORDER)
    perps = [np.append(s.a[1:], abs(s.b)) if s.b else s.a[1:] for s in specs]
    rho = [math.hypot(*perp) for perp in perps]
    dual = [k for k in range(len(specs)) if rho[k] >= _FACE_RHO]
    if dual:
        c1, rho_d = np.array([specs[k].a[0] for k in dual]), np.array([rho[k] for k in dual])
        x = np.array([_face_level(specs[k]) for k in dual])
        x, y, terms, rules, evaluations, steps = _minimize_dual(specs[0], rule, c1, rho_d, x, rho_d * x)
        residual = _residual(terms, np.array([float(np.abs(perps[k]).max()) / rho[k] for k in dual]))
    solved = {k: j for j, k in enumerate(dual)}
    out = []
    for k, spec in enumerate(specs):
        b, j = abs(spec.b), solved.get(k)
        if j is None:
            lam, t_star, breaks, res, evals, newton = _solve_face(spec, rule)
            point, layer = (float(lam[0]), float(rho[k])), None
        else:
            point, res, evals, newton = (float(x[j]), float(y[j])), float(residual[j]), int(evaluations[j]), int(steps[j])
            (breaks, layer), t_star = rules[j], None
        _check_residual(res, _POSITIVE_B_TOL if b else _ZERO_B_TOL, evals)
        if b:  # y = rho on the face gives mu = b
            mu = point[1] * (b / rho[k]) if j is not None else b
            lam = np.concatenate(([point[0]], (-spec.a[1:] / b) * mu))
            warnings = _conditioning_warnings(spec)
        else:
            mu, warnings = None, _zero_b_warnings(spec, rho[k], j is not None)
            if j is not None:
                lam = np.concatenate(([point[0]], -point[1] * (spec.a[1:] / rho[k])))
                # a smooth datum, but curvature concentrates where u_1 crosses zero
                if layer is None and (t_cross := _crossing(spec, point[0])) is not None:
                    breaks = tuple(sorted({*breaks, t_cross}))
        out.append(
            LagrangeSolution(
                branch="positive_b" if b else "zero_b",
                lam=lam,
                mu=mu,
                residual=res,
                iterations=evals,
                newton_steps=newton,
                dual_point=point,
                jump_point=None if b else t_star,
                breakpoints=breaks,
                layer=layer,
                warnings=tuple(warnings),
            )
        )
    return out


def solve_batch(specs, rule: QuadratureRule | None = None) -> list[LagrangeSolution]:
    """Solve the moment systems of centers sharing n and r in one batch.

    A center with b != 0 is solved on the b > 0 branch for |b| (``datum``
    signs the last component from spec.b), one with b = 0 on the b = 0
    branch.  All reduced duals off the rho = 0 face are minimized in one
    call, and a row's result does not depend on the other rows, so each
    solution is bit for bit the one ``solve_positive_b`` or
    ``solve_zero_b`` returns.  Raises ``SolverError`` for the first
    center, in order, whose residual is not below its branch's tolerance
    (1e-10 for b != 0, 1e-8 for b = 0).
    """
    specs = list(specs)
    if any((s.n, s.r) != (specs[0].n, specs[0].r) for s in specs):
        raise ValueError("a batch needs centers that share n and r")
    return _solve(specs, rule) if specs else []


def solve_positive_b(spec: ProblemSpec, rule: QuadratureRule | None = None) -> LagrangeSolution:
    """Solve R(lam, mu) = a, I(lam, mu) = b for b > 0.

    Minimizes the reduced dual in (x, y) = (lam_1, |(lam_2..lam_m, mu)|)
    by damped Newton, started at the rho = 0 optimum x = g(t*),
    y = rho x, and rotates the minimizer back: mu = y (b / rho),
    lam_j = -mu a_j / b.  The residual is that of the full (m+1)-dimensional
    moment system, on the rule with the datum's turnover layer on its own
    panel (``layer``), which small b makes arbitrarily thin.  Centers with
    rho = |(a_2..a_m, b)| below 1e-300 are solved on the rho = 0 face,
    with y = rho and the breakpoint t*.  Raises ``SolverError`` unless
    the residual is below 1e-10.
    """
    if spec.b <= 0.0:
        raise ValueError(f"positive branch requires b > 0, got b={spec.b}")
    return _solve([spec], rule)[0]


def solve_zero_b(spec: ProblemSpec, rule: QuadratureRule | None = None) -> LagrangeSolution:
    """Solve Rcal(lam) = a on the degenerate branch b = 0.

    With a vanishing multiplier tail (rho = |(a_2..a_m)| = 0, or below
    1e-300) the datum is a two-valued latitude sign function and the
    single unknown is its jump latitude ``jump_point``, the crossing of
    the dual's rho = 0 face.  Otherwise
    the reduced dual is minimized as on the positive branch and
    lam_j = -y a_j / rho; a small tail bends the datum over a thin kink
    layer, resolved on the solution's ``layer`` panel.  Raises
    ``SolverError`` unless the residual is below 1e-8.
    """
    if spec.b != 0.0:
        raise ValueError(f"zero branch requires b = 0, got b={spec.b}")
    return _solve([spec], rule)[0]
