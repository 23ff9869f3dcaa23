"""Quadrature and sampling on the unit sphere S^{n-1} in R^n.

All integrals in this package are taken against the normalized surface
measure sigma (sigma(S^{n-1}) = 1).  Two symmetry reductions cover every
integrand that occurs:

* zonal: the integrand depends on omega only through the latitude
  t = <omega, N>, with N the north pole.  Then

      int_S f(<omega, N>) dsigma
          = c_n * int_{-1}^{1} f(t) (1 - t^2)^{(n-3)/2} dt,

      c_n = Gamma(n/2) / (sqrt(pi) * Gamma((n-1)/2)),

  where c_n is exactly the constant that makes the weight integrate to
  one.  Gauss-Jacobi nodes for the weight (1 - t^2)^{(n-3)/2} make the
  one-dimensional rule exact for polynomial profiles of degree up to
  2*order - 1.  For n = 2 and n = 4 the weight is a Chebyshev one
  ((1 - t^2)^{-1/2} and (1 - t^2)^{1/2}) and the rule has a closed form;
  for n = 3 the weight is flat and the rule is Gauss-Legendre.

* biaxial: the integrand depends on omega through the pair
  (t1, t2) = (<omega, N>, <omega, e>) for a unit e orthogonal to N.
  The joint density of (t1, t2) is proportional to
  (1 - t1^2 - t2^2)^{(n-4)/2} on the open unit disk, and the
  substitution t2 = sqrt(1 - t1^2) * w factorizes it into the zonal
  weights of dimensions n and n-1.  A tensor product of two 1-D rules
  therefore applies for n >= 3; on the circle (n = 2) the pair lives on
  t1^2 + t2^2 = 1, and the inner rule is w = +-1 at half weight.

Gauss rules lose all accuracy across a jump, so profiles with known
discontinuities must be integrated piecewise: callers pass the jump
locations as breakpoints, and each sub-interval gets its own mapped
rule.  Sub-intervals touching an endpoint keep the (possibly singular)
endpoint factor inside a one-sided Jacobi weight; interior sub-intervals
fold the full weight into the integrand and use Gauss-Legendre.  Pieces
narrower than 0.05 get a fixed low order (hp grading; Schwab, p- and
hp-FEM, 1998); four or more interior pieces are mapped in one broadcast.
The solver splices in its own rule for a datum's turnover layer.

Every Gauss rule without a closed form, for (1-x)^alpha (1+x)^beta with
half-integer alpha, beta >= -1/2 and Legendre included, comes from one
numpy routine: Newton's method on the orthonormal three-term recurrence,
run at all nodes at once from Chebyshev-angle guesses with Gatteschi's
correction or, for alpha >= 12, the Jacobi matrix's eigenvalues, then
Christoffel weights mass / sum_k p_k(x)^2, with the mass
2^{alpha+beta+1} B(alpha+1, beta+1) from ``math.lgamma``.  Each of its
few sweeps costs O(order^2).

The rules the package asks for are shipped as that routine's saved
output, so no process repeats the sweeps: ``gauss_jacobi.f8`` next to
this module holds, for every key of ``_TABLE_KEYS`` in turn, the rule's
nodes and then its weights as raw little-endian float64.  The keys are
the weights (p, p), (p, 0) and (0, p) with p = (n-3)/2 for the
dimensions n = 2, 3, 4 and 16 that the package's callers use, at orders
16 to 512, and (p, p) at order 2048 for the oracle, less the two closed
forms.  ``_base_jacobi`` reads one key's slice from the file, and builds
any other key as before.  ``python tools/rule_table.py`` rewrites the
file (written with numpy 2.4.6, which CI pins), and a Tier-1 test
rebuilds every key and compares bit for bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import QuadratureError

DEFAULT_ORDER = 512

__all__ = [
    "DEFAULT_ORDER",
    "QuadratureRule",
    "BiaxialRule",
    "zonal_rule",
    "zonal_integrate",
    "biaxial_rule",
    "segmented_nodes",
    "segmented_outer",
    "segmented_pairs",
    "poisson_kernel",
    "sample_sphere",
]


def _weight_exponent(n: int) -> float:
    return 0.5 * (n - 3)


@lru_cache(maxsize=None)
def _zonal_constant(n: int) -> float:
    # c_n = Gamma(n/2) / (sqrt(pi) Gamma((n-1)/2)), kept in log form for large n.
    return math.exp(math.lgamma(0.5 * n) - math.lgamma(0.5 * (n - 1))) / math.sqrt(math.pi)


def _jacobi_recurrence(order: int, alpha: float, beta: float):
    """Coefficients of x p_k = s_{k+1} p_{k+1} + a_k p_k + s_k p_{k-1} for the
    orthonormal Jacobi polynomials: a_k for k < order, s_k for k <= order;
    order >= 1."""
    k = np.arange(order + 1, dtype=float)
    ab = alpha + beta
    s = 2.0 * k + ab
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (beta * beta - alpha * alpha) / (s * (s + 2.0))
        b = 4.0 * k * (k + alpha) * (k + beta) * (k + ab) / (s * s * (s + 1.0) * (s - 1.0))
    # k = 0 and k = 1 in their cancelled forms (0/0 above when ab is 0 or -1)
    a[0] = (beta - alpha) / (ab + 2.0)
    b[0] = 0.0
    b[1] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0))
    return a[:order], np.sqrt(b)


def _gauss_jacobi(order: int, alpha: float, beta: float):
    """Gauss nodes and weights for (1-x)^alpha (1+x)^beta by Newton's method.

    The nodes start at Chebyshev-like angles with Gatteschi's correction,
    theta_k = phi_k + ((1/4 - alpha^2) cot(phi_k/2) - (1/4 - beta^2) tan(phi_k/2))
    / (4 rho^2), phi_k = (k + alpha/2 - 1/4) pi / rho, rho = order + (alpha +
    beta + 1)/2, or, once that start fails to separate (alpha >= 12), at the
    Jacobi matrix's eigenvalues (Golub and Welsch, 1969).  Each sweep runs
    the recurrence at all nodes at once for p_N and p_{N-1} (N = order), and the Jacobi
    identity (1 - x^2) p_N' = (u - N x) p_N + v p_{N-1} gives the Newton
    step.  The weights are mass / K with the Christoffel sum
    K = sum_{k < N} p_k^2 (the p_k scaled so that p_0 = 1), taken at the
    exact root: the last Newton correction dx, below the node's rounding,
    enters through K'/K = ((alpha + beta + 2) x + alpha - beta) / (1 - x^2),
    which the Jacobi differential equation gives at a root.  Near an
    endpoint that ratio is about (alpha + 1)/(1 - x), so the correction
    keeps endpoint weights accurate where the rounding of the node alone
    would not.  An even weight (alpha = beta) gets an exactly symmetric rule.
    """
    a, s = _jacobi_recurrence(order, alpha, beta)
    ab = alpha + beta
    log_mass = (
        (ab + 1.0) * math.log(2.0)
        + math.lgamma(alpha + 1.0)
        + math.lgamma(beta + 1.0)
        - math.lgamma(ab + 2.0)
    )
    rho = order + 0.5 * (ab + 1.0)
    phi = (np.arange(order, 0, -1) + 0.5 * alpha - 0.25) * (math.pi / rho)
    half = 0.5 * phi
    theta = phi + (
        (0.25 - alpha * alpha) / np.tan(half) - (0.25 - beta * beta) * np.tan(half)
    ) / (4.0 * rho * rho)
    u = order * (alpha - beta) / (2.0 * order + ab)
    v = (2.0 * order + ab + 1.0) * s[order]
    for x in (np.cos(theta), None):
        if x is None:  # Golub-Welsch: the eigenvalues of the Jacobi matrix
            x = np.linalg.eigvalsh(np.diag(a) + np.diag(s[1:order], -1))
        converged = False
        for _ in range(50):  # a good start converges in 2-24 sweeps
            p_prev, p = np.zeros_like(x), np.ones_like(x)
            k_sum = np.zeros_like(x)
            for k in range(order):
                if converged:  # the weights need K only at the converged nodes
                    k_sum += p * p
                p_prev, p = p, ((x - a[k]) * p - s[k] * p_prev) / s[k + 1]
            sigma = 1.0 - x * x
            dx = p * sigma / ((u - order * x) * p + v * p_prev)
            if converged:
                break
            x = x - dx
            converged = float(np.abs(dx).max()) < 1e-13
        else:
            continue
        if np.all(np.diff(x) > 0.0) and -1.0 < x[0] and x[-1] < 1.0:
            k_slope = ((ab + 2.0) * x + alpha - beta) / sigma
            w = math.exp(log_mass) / (k_sum * (1.0 - k_slope * dx))
            if alpha == beta:
                x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
            return x, w
    raise QuadratureError(
        f"Gauss-Jacobi nodes (order {order}, alpha {alpha}, beta {beta}) did not separate"
    )


_TABLE_PATH = os.path.join(os.path.dirname(__file__), "gauss_jacobi.f8")
# the dimensions the package's measured callers use: 2, 3, 4 and 16
_TABLE_KEYS = tuple(
    (order, alpha, beta)
    for order in (16, 32, 64, 128, 256, 512, 2048)
    for alpha, beta in dict.fromkeys(
        key
        for p in (0.5 * (n - 3) for n in (2, 3, 4, 16))
        for key in ((p, p),) + (((p, 0.0), (0.0, p)) if order < 2048 else ())
    )
    if not (alpha == beta and abs(alpha) == 0.5)  # the closed forms
)
# where each key's nodes start in the file, in float64s
_TABLE_OFFSETS = dict(zip(_TABLE_KEYS, accumulate((2 * k[0] for k in _TABLE_KEYS), initial=0)))


@lru_cache(maxsize=None)
def _base_jacobi(order: int, alpha: float, beta: float):
    """Nodes and weights for the weight (1-x)^alpha (1+x)^beta on [-1, 1]:
    a closed form, the shipped table's slice, or else a Newton build."""
    if order < 1:
        raise QuadratureError(f"rule order must be >= 1, got {order}")
    if alpha == beta == -0.5:
        # Chebyshev-Gauss of the first kind in closed form
        k = np.arange(1, order + 1)
        x = np.cos((2.0 * k - 1.0) * np.pi / (2.0 * order))[::-1]
        w = np.full(order, np.pi / order)
        return x.copy(), w
    if alpha == beta == 0.5:
        # Chebyshev-Gauss of the second kind in closed form, x_k = cos(k pi / (order + 1))
        # written as a sine of the angle from the equator so the nodes are exactly odd
        y = (2.0 * np.arange(1, order + 1) - order - 1.0) * (np.pi / (2.0 * order + 2.0))
        return np.sin(y), (np.pi / (order + 1)) * np.cos(y) ** 2
    start = _TABLE_OFFSETS.get((order, alpha, beta))
    if start is not None:
        data = np.fromfile(_TABLE_PATH, dtype="<f8", count=2 * order, offset=8 * start)
        return data[:order].copy(), data[order:].copy()
    return _gauss_jacobi(order, alpha, beta)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(arr, dtype=float))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class QuadratureRule:
    """Latitude rule: sum(weights * f(nodes)) ~ int_S f(<omega,N>) dsigma.

    nodes lie in (-1, 1) and the weights are positive and sum to one, so
    the rule integrates the constant profile exactly.
    """

    n: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def order(self) -> int:
        return self.nodes.size


@lru_cache(maxsize=64)
def zonal_rule(n: int, order: int = DEFAULT_ORDER) -> QuadratureRule:
    """Gauss rule for the latitude weight (1 - t^2)^{(n-3)/2} on [-1, 1]."""
    if n < 2:
        raise QuadratureError(f"sphere dimension needs n >= 2, got n={n}")
    p = _weight_exponent(n)
    x, w = _base_jacobi(order, p, p)
    w = w / w.sum()  # normalize away the Jacobi weight mass = 1/c_n
    return QuadratureRule(n=n, nodes=_freeze(x), weights=_freeze(w))


def _narrow_order(order: int) -> int:
    """The fixed low order of hp-graded panels: 64 for order 512."""
    return min(order, max(order // 8, 16))


def _is_narrow(lo: float, hi: float) -> bool:
    # narrower than 0.05 and, unless it has the endpoint's Jacobi weight, a
    # quarter of its width from the poles, where the weight of even n is singular
    width = hi - lo
    return width < 0.05 and (lo == -1.0 or hi == 1.0 or 4.0 * min(1.0 - hi, 1.0 + lo) >= width)


def _segment_rule(n: int, order: int, lo: float, hi: float):
    """Mapped rule for int_lo^hi f(t) c_n (1-t^2)^{(n-3)/2} dt.

    Endpoint segments keep the one-sided factor as a Jacobi weight so
    integrable singularities (n = 2) and vanishing densities (n >= 4)
    are both handled at full accuracy.
    """
    p = _weight_exponent(n)
    cn = _zonal_constant(n)
    if hi == 1.0 and lo == -1.0:
        rule = zonal_rule(n, order)
        return rule.nodes, rule.weights
    if hi == 1.0:
        x, wx = _base_jacobi(order, p, 0.0)
        half = 0.5 * (1.0 - lo)
        t = 1.0 - half * (1.0 - x)
        w = cn * half ** (p + 1.0) * wx * (1.0 + t) ** p
    elif lo == -1.0:
        x, wx = _base_jacobi(order, 0.0, p)
        half = 0.5 * (1.0 + hi)
        t = -1.0 + half * (1.0 + x)
        w = cn * half ** (p + 1.0) * wx * (1.0 - t) ** p
    else:
        x, wx = _base_jacobi(order, 0.0, 0.0)
        half = 0.5 * (hi - lo)
        t = 0.5 * (lo + hi) + half * x
        w = cn * half * wx * (1.0 - t * t) ** p
    return t, w


def _clean_breakpoints(breakpoints) -> list[float]:
    pts = sorted(np.atleast_1d(np.asarray(breakpoints, dtype=float)).tolist())
    for t in pts:
        if not -1.0 < t < 1.0:
            raise QuadratureError(f"breakpoint {t} lies outside (-1, 1)")
    out: list[float] = []
    for t in pts:
        if not out or t - out[-1] > 1e-14:
            out.append(t)
    return out


def _profile_values(profile, t: np.ndarray) -> np.ndarray:
    vals = np.asarray(profile(t), dtype=float)
    if vals.shape != t.shape:
        vals = np.broadcast_to(vals, t.shape)
    if not np.all(np.isfinite(vals)):
        bad = int(np.argmin(np.isfinite(vals)))
        raise QuadratureError(f"non-finite profile value at node t={t[bad]!r}")
    return vals


def zonal_integrate(rule: QuadratureRule, profile, breakpoints=None) -> float:
    """Integrate a latitude profile against sigma.

    ``profile`` must accept an ndarray of latitudes and evaluate
    elementwise.  ``breakpoints`` lists interior jump locations of the
    profile; the rule is then remapped piecewise so Gauss accuracy is
    retained on each smooth piece.
    """
    t, w = segmented_nodes(rule, breakpoints)
    return float(w @ _profile_values(profile, t))


@dataclass(frozen=True)
class BiaxialRule:
    """Joint rule in (t1, t2) = (<omega,N>, <omega,e>) for orthonormal N, e.

    A product of two factors: the latitude rule ``outer`` in t1 and the
    rule ``inner`` in s, with t2 = sqrt(1 - t1^2) * s.  For n >= 3,
    ``inner`` is the zonal rule of dimension n-1; on the circle (n = 2)
    it is the zonal rule of S^0, s = -1, +1 at weight 1/2, so the pairs
    lie on t1^2 + t2^2 = 1.  ``outer_order`` is the order that a
    t1-piecewise version of the rule gives each piece
    (``segmented_outer``); ``segmented_pairs`` expands the product.  A
    map's own latitude rule sets the one ``mapping.eval_batch`` takes.
    """

    n: int
    outer: QuadratureRule
    inner: QuadratureRule
    outer_order: int


@lru_cache(maxsize=64)
def biaxial_rule(n: int, order: int = 256) -> BiaxialRule:
    """Tensor rule for biaxial profiles: ``zonal_rule(n, order)`` times
    ``zonal_rule(n - 1, max(order // 2, 1))`` for n >= 3.  ``mapping``
    evaluates a map of rule order k on ``biaxial_rule(n, k // 2)``.

    On the circle the outer factor is ``zonal_rule(2, 2 * order)``, a
    Chebyshev rule whose nodes with s = +-1 are 4 * order equally spaced
    angles, so a Poisson kernel of radius rho is off by about
    rho^(4 * order).
    """
    if n < 2:
        raise QuadratureError(f"sphere dimension needs n >= 2, got n={n}")
    if n == 2:
        half = _freeze([0.5, 0.5])
        outer, inner = zonal_rule(2, 2 * order), QuadratureRule(1, _freeze([-1.0, 1.0]), half)
    else:
        outer, inner = zonal_rule(n, order), zonal_rule(n - 1, max(order // 2, 1))
    return BiaxialRule(n, outer, inner, outer_order=order)


def _pairs(t: np.ndarray, w: np.ndarray, inner: QuadratureRule):
    """(t1, t2, weights) of the t1 rule (t, w) times ``inner`` in t2 = sqrt(1 - t1^2) s."""
    t1 = np.repeat(t, inner.order)
    t2 = np.sqrt(np.clip(1.0 - t1 * t1, 0.0, None)) * np.tile(inner.nodes, t.size)
    return t1, t2, np.outer(w, inner.weights).ravel()


def segmented_nodes(rule: QuadratureRule, breakpoints=None, panel=None):
    """Flattened (nodes, weights) of the rule, remapped piecewise if needed.

    With breakpoints the returned weights carry the latitude density of
    each sub-interval, so ``w @ f(t)`` equals the piecewise integral
    computed by :func:`zonal_integrate`; panels narrower than 0.05 take
    a fixed low order (hp grading).  ``panel`` (``lo``, ``hi``, ``nodes``,
    ``weights``: the solver's ``Layer``) is the caller's rule for [lo, hi],
    which replaces the breakpoints within it and comes last.
    """
    if panel is None and (breakpoints is None or len(np.atleast_1d(breakpoints)) == 0):
        return rule.nodes, rule.weights
    n, low = rule.n, _narrow_order(rule.order)
    edges = [-1.0, *_clean_breakpoints(() if breakpoints is None else breakpoints), 1.0]
    if panel is not None:
        edges = [e for e in edges if not panel.lo - 1e-14 <= e <= panel.hi + 1e-14]
        edges = sorted([*edges, panel.lo, panel.hi])
    orders = [low if _is_narrow(lo, hi) else rule.order for lo, hi in zip(edges, edges[1:])]
    gap = len(edges) - 2 if panel is None else edges.index(panel.lo)  # the panel's interval
    parts = [_segment_rule(n, orders[0], -1.0, edges[1])]
    parts += _interior_panels(n, edges[1 : gap + 1], orders[1:gap])
    parts += _interior_panels(n, edges[gap + 1 : -1], orders[gap + 1 : -1])
    parts.append(_segment_rule(n, orders[-1], edges[-2], 1.0))
    if panel is not None:
        parts.append((panel.nodes, panel.weights))
    return np.concatenate([t for t, _ in parts]), np.concatenate([w for _, w in parts])


def _interior_panels(n: int, edges: list, orders: list) -> list:
    """(t, w) of the interior panels between ``edges`` in latitude order, from
    four panels on in one broadcast (one at a time is faster below that)."""
    if len(orders) < 4:
        return [_segment_rule(n, k, lo, hi) for lo, hi, k in zip(edges, edges[1:], orders)]
    e = np.array(edges)
    base = [_base_jacobi(k, 0.0, 0.0) for k in orders]
    half = np.repeat(0.5 * (e[1:] - e[:-1]), orders)
    t = np.repeat(0.5 * (e[:-1] + e[1:]), orders) + half * np.concatenate([x for x, _ in base])
    wx = np.concatenate([wx for _, wx in base])
    return [(t, _zonal_constant(n) * half * wx * (1.0 - t * t) ** _weight_exponent(n))]


def segmented_outer(rule: BiaxialRule, t1_breakpoints=None, panel=None):
    """(t, w), the outer factor of a biaxial rule: ``rule.outer`` without
    breakpoints or panel, else ``segmented_nodes`` of ``zonal_rule(n, outer_order)``."""
    if panel is None and (t1_breakpoints is None or len(np.atleast_1d(t1_breakpoints)) == 0):
        return rule.outer.nodes, rule.outer.weights
    return segmented_nodes(zonal_rule(rule.n, rule.outer_order), t1_breakpoints, panel)


def segmented_pairs(rule: BiaxialRule, t1_breakpoints=None, panel=None):
    """(t1, t2, weights) of a biaxial rule on ``segmented_outer`` in t1: the
    expanded product with ``rule.inner`` (see ``_pairs``)."""
    return _pairs(*segmented_outer(rule, t1_breakpoints, panel), rule.inner)


def poisson_kernel(x, omega, n: int) -> float | np.ndarray:
    """Harmonic-measure kernel (1 - |x|^2) / |x - omega|^n for |x| < 1, |omega| = 1.

    ``omega`` may be a single point or an array of points in its last
    axis; the result follows the leading shape of ``omega``.
    """
    x = np.asarray(x, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if x.shape[-1] != n or omega.shape[-1] != n:
        raise ValueError(f"points must have length n={n}")
    xx = float(x @ x)
    if xx >= 1.0:
        raise ValueError(f"kernel pole point must satisfy |x| < 1, got |x|={np.sqrt(xx)}")
    diff = omega - x
    dist2 = np.sum(diff * diff, axis=-1)
    out = (1.0 - xx) * dist2 ** (-0.5 * n)
    return float(out) if out.ndim == 0 else out


def sample_sphere(n: int, count: int, seed: int) -> np.ndarray:
    """Deterministic uniform sample of ``count`` points on S^{n-1}."""
    if n < 2:
        raise ValueError(f"sphere dimension needs n >= 2, got n={n}")
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, n))
    norms = np.linalg.norm(pts, axis=1)
    while np.any(norms < 1e-12):  # astronomically unlikely, but keep it exact
        bad = norms < 1e-12
        pts[bad] = rng.standard_normal((int(bad.sum()), n))
        norms = np.linalg.norm(pts, axis=1)
    return pts / norms[:, None]
