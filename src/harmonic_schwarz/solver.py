"""Lagrange-multiplier moment system for the extremal boundary data.

A harmonic map of the unit ball B^n into B^{m+1} with prescribed center
value (a, b), |a|^2 + b^2 < 1, b >= 0, has a unique extremal boundary
datum for the first-coordinate growth functional.  Its m-vector part is
driven by the latitude kernel

    g(t) = (1 + r^2 - 2 r t)^{-n/2},  t = <omega, N>,

through a field that is affine in g along the first coordinate:

* b > 0:  A(omega) = (g(t) * l - lam) / mu with l = (1, 0, ..., 0),
  boundary datum u = A / sqrt(1 + |A|^2), and multipliers (lam, mu),
  mu > 0, fixed by the moment conditions

      R(lam, mu) = int A / sqrt(1 + |A|^2) dsigma = a,
      I(lam, mu) = int 1 / sqrt(1 + |A|^2) dsigma = b.

* b = 0:  the datum degenerates to u = Acal / |Acal| with
  Acal(omega) = g(t) * l - lam and the single condition
  Rcal(lam) = int Acal / |Acal| dsigma = a.

Both systems collapse to two scalar unknowns.  For j >= 2 the field
component A_j = -lam_j / mu is constant over the sphere, so
R_j = (-lam_j / mu) * I exactly and matching R_j = a_j forces
lam_j = -mu * a_j / b; the remaining unknowns are (lam_1, mu).  The same
factorization with J = int dsigma / |Acal| gives lam_j = -a_j / J on the
b = 0 branch.  The solver therefore runs a damped Newton iteration on
the reduced pair, with a bracketing fallback that exploits the proven
monotone structure (R_1 strictly decreasing in lam_1; I strictly
increasing in mu along the solved path), which makes convergence
unconditional.  Small b forces small mu and the datum then turns over
inside a thin latitude layer no fixed Gauss rule resolves; the moment
quadrature is segmented geometrically around the turnover and the solve
repeated until a partition built at the candidate root confirms the
moments.  Negative b is never solved directly: callers flip the
sign of the last target coordinate and negate the matching component of
the map afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError
from .sphere import (
    DEFAULT_ORDER,
    QuadratureRule,
    segmented_nodes,
    zonal_integrate,
    zonal_rule,
)

MAX_DIMENSION = 16
MAX_TARGET_DIM = 8

_BRENTQ_KW = dict(xtol=1e-30, rtol=9e-16, maxiter=300)

# glibc's malloc raises its mmap and trim thresholds to the size of the first
# large block it unmaps.  Until that happens, the ~180 KB temporaries of the
# graded moment rules are handed back to the kernel after every evaluation and
# page-faulted in again on the next one (b = 0 envelope sweeps ran about a
# third slower for it on a 2-core Linux machine).  Freeing one 4 MB block here
# lifts both thresholds above those temporaries; other allocators ignore it.
np.empty(1 << 19)

__all__ = [
    "ProblemSpec",
    "LagrangeSolution",
    "kernel_profile",
    "kernel_inverse",
    "field_A",
    "moments_RI",
    "jacobian_RI",
    "moments_Rcal",
    "solve_positive_b",
    "solve_zero_b",
    "lambda_path_point",
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
        if not 2 <= self.n <= MAX_DIMENSION:
            raise ValueError(f"need 2 <= n <= {MAX_DIMENSION}, got n={self.n}")
        if not 1 <= self.m <= MAX_TARGET_DIM:
            raise ValueError(f"need 1 <= m <= {MAX_TARGET_DIM}, got m={self.m}")
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"need 0 < r < 1, got r={self.r}")
        a = np.ascontiguousarray(np.atleast_1d(np.asarray(self.a, dtype=float)))
        if a.shape != (self.m,):
            raise ValueError(f"a must have shape ({self.m},), got {a.shape}")
        norm2 = float(a @ a) + float(self.b) ** 2
        if norm2 >= 1.0:
            raise ValueError(
                f"center value must lie inside the ball: |a|^2 + b^2 = {norm2} >= 1"
            )
        a.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "r", float(self.r))


@dataclass(frozen=True)
class LagrangeSolution:
    """Solved multipliers plus convergence diagnostics.

    ``mu`` is None on the b = 0 branch, ``jump_point`` is the latitude
    of the sign jump and is only set when that branch degenerates to
    two-valued data (zero multiplier tail).  ``breakpoints`` lists the
    graded latitude partition used to resolve a thin transition layer of
    the datum (empty for well-resolved solutions); quadratures of the
    datum must be segmented there to see the layer.
    """

    branch: str
    lam: np.ndarray
    mu: float | None
    residual: float
    iterations: int
    jump_point: float | None = None
    breakpoints: tuple[float, ...] = ()
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
    """Latitude where the axis kernel attains y (strictly increasing in t)."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"need 0 < r < 1, got r={r}")
    return (1.0 + r * r - y ** (-2.0 / n)) / (2.0 * r)


def _kernel_slope(r: float, n: int, t: float) -> float:
    return n * r * ((1.0 - r) ** 2 + 2.0 * r * (1.0 - t)) ** (-0.5 * n - 1.0)


def _graded_partition(t_star: float, delta: float) -> tuple:
    """Latitudes packing panels geometrically around t_star, innermost
    half-width delta; panel size over distance-to-t_star stays bounded,
    so one partition resolves features of every width >= delta at once."""
    pts = [t_star]
    d = delta
    while d < 0.4:
        pts.append(t_star - d)
        pts.append(t_star + d)
        d *= 4.0
    return tuple(sorted(p for p in pts if -1.0 + 1e-12 < p < 1.0 - 1e-12))


def _layer_breakpoints(spec: ProblemSpec, lam1: float, scale: float) -> tuple:
    """Graded latitude partition resolving the turnover layer of the datum.

    The first datum component turns over where g(t) crosses lam1, inside
    a layer of latitude width ~ scale/g'(t*) around t* = g^{-1}(lam1);
    ``scale`` is the size of |g - lam1| at which the turnover saturates
    (mu sqrt(1+c2) on the positive branch, the tail field norm on the
    degenerate one).  A plain Gauss rule goes blind once that width
    drops below ~5e-2 (the datum's analyticity strip shrinks with it),
    so the crossing gets bracketed by graded panels.  Returns () when g
    never crosses lam1 or the layer is wide enough already.
    """
    r, n = spec.r, spec.n
    if not kernel_profile(r, n, -1.0) < lam1 < kernel_profile(r, n, 1.0):
        return ()
    t_star = kernel_inverse(r, n, lam1)
    eps = scale / _kernel_slope(r, n, t_star)
    if eps >= 0.05:
        return ()
    return _graded_partition(t_star, max(8.0 * eps, 1e-12))


def _segment_quadrature(rule: QuadratureRule, breaks: tuple) -> QuadratureRule:
    t, w = segmented_nodes(rule, breaks)
    return QuadratureRule(n=rule.n, nodes=t, weights=w)


def field_A(spec: ProblemSpec, lam, mu: float, t):
    """Multiplier field (g(t) * l - lam) / mu; shape (m,) or (len(t), m)."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (spec.m,):
        raise ValueError(f"lam must have shape ({spec.m},), got {lam.shape}")
    if not mu > 0.0:
        raise ValueError(f"need mu > 0, got mu={mu}")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    g = kernel_profile(spec.r, spec.n, t_arr)
    out = np.tile(-lam / mu, (t_arr.size, 1))
    out[:, 0] += g / mu
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return out[0]
    return out


def _tail_of(lam: np.ndarray) -> np.ndarray:
    return lam[1:] if lam.size > 1 else np.empty(0)


def moments_RI(spec: ProblemSpec, lam, mu: float, rule: QuadratureRule):
    """Constraint moments (R, I) of the b > 0 field at (lam, mu).

    The tail components use the constant-field factorization
    R_j = (-lam_j / mu) * I, which is exact, so only two latitude
    integrals are evaluated.
    """
    lam = np.asarray(lam, dtype=float)
    if not mu > 0.0:
        raise ValueError(f"need mu > 0, got mu={mu}")
    g = kernel_profile(spec.r, spec.n, rule.nodes)
    a1 = (g - lam[0]) / mu
    tail = -_tail_of(lam) / mu
    den = np.sqrt(1.0 + float(tail @ tail) + a1 * a1)
    value_i = float(rule.weights @ (1.0 / den))
    moments = np.empty(spec.m)
    moments[0] = float(rule.weights @ (a1 / den))
    moments[1:] = tail * value_i
    return moments, value_i


def jacobian_RI(spec: ProblemSpec, lam, mu: float, rule: QuadratureRule) -> np.ndarray:
    """Jacobian of (R, I) with respect to (lam, mu), shape (m+1, m+1).

    With K = (1 + |A|^2)^{-3/2} the entries reduce to three scalar
    integrals S0 = int K, S1 = int A_1 K, S2 = int A_1^2 K because the
    tail of A is constant:

        dR_j/dlam_j = -(1/mu) int (1 + |A|^2 - A_j^2) K
        dR_j/dlam_i = +(1/mu) int A_i A_j K          (i != j)
        dR_j/dmu    = -(1/mu) int A_j K = -dI/dlam_j
        dI/dmu      = +(1/mu) int |A|^2 K.
    """
    lam = np.asarray(lam, dtype=float)
    if not mu > 0.0:
        raise ValueError(f"need mu > 0, got mu={mu}")
    m = spec.m
    g = kernel_profile(spec.r, spec.n, rule.nodes)
    a1 = (g - lam[0]) / mu
    tail = -_tail_of(lam) / mu
    c2 = float(tail @ tail)
    q = 1.0 + c2 + a1 * a1
    kern = q ** (-1.5)
    s0 = float(rule.weights @ kern)
    s1 = float(rule.weights @ (a1 * kern))
    s2 = float(rule.weights @ (a1 * a1 * kern))

    jac = np.empty((m + 1, m + 1))
    # row 0: R_1;  |A|^2 - A_1^2 = c2 is constant.
    jac[0, 0] = -(1.0 + c2) * s0 / mu
    jac[0, 1:m] = tail * s1 / mu
    jac[0, m] = -s1 / mu
    # rows 1..m-1: tail moments R_j, j >= 2.
    for j in range(1, m):
        aj = tail[j - 1]
        jac[j, 0] = aj * s1 / mu
        jac[j, 1:m] = tail * aj * s0 / mu
        jac[j, j] = -((1.0 + c2 - aj * aj) * s0 + s2) / mu
        jac[j, m] = -aj * s0 / mu
    # last row: I.
    jac[m, 0] = s1 / mu
    jac[m, 1:m] = tail * s0 / mu
    jac[m, m] = (s2 + c2 * s0) / mu
    return jac


def moments_Rcal(
    spec: ProblemSpec, lam, rule: QuadratureRule, breakpoints=None
) -> np.ndarray:
    """Constraint moments Rcal of the b = 0 field at lam.

    When the multiplier tail vanishes the integrand is a latitude sign
    function; its jump is passed to the rule as a breakpoint.  Otherwise
    |Acal| is bounded away from zero and the integrand is smooth, with
    the near-kink latitude still supplied as a breakpoint to keep Gauss
    accuracy when the tail is small.  ``breakpoints`` overrides that
    derived crossing when the caller already holds a graded partition
    for a thin kink layer.
    """
    lam = np.asarray(lam, dtype=float)
    tail = -_tail_of(lam)
    lam1 = float(lam[0])
    r, n = spec.r, spec.n
    g_lo = kernel_profile(r, n, -1.0)
    g_hi = kernel_profile(r, n, 1.0)
    moments = np.empty(spec.m)
    breaks = None
    if g_lo < lam1 < g_hi:
        breaks = [kernel_inverse(r, n, lam1)]
    if not np.any(tail):
        if breaks is None:
            moments[0] = 1.0 if lam1 <= g_lo else -1.0
        else:
            moments[0] = zonal_integrate(
                rule,
                lambda t: np.sign(kernel_profile(r, n, t) - lam1),
                breakpoints=breaks,
            )
        moments[1:] = 0.0
        return moments
    if breakpoints is not None and len(breakpoints) > 0:
        breaks = list(breakpoints)
    w2 = float(tail @ tail)

    def inv_norm(t):
        acal1 = kernel_profile(r, n, t) - lam1
        return 1.0 / np.sqrt(w2 + acal1 * acal1)

    def first(t):
        acal1 = kernel_profile(r, n, t) - lam1
        return acal1 / np.sqrt(w2 + acal1 * acal1)

    moments[0] = zonal_integrate(rule, first, breakpoints=breaks)
    moments[1:] = tail * zonal_integrate(rule, inv_norm, breakpoints=breaks)
    return moments


# --------------------------------------------------------------------------
# reduced scalar systems
# --------------------------------------------------------------------------


def _axis_moments(g, w, lam1, mu, c2):
    """R_1 and I for a field with constant tail norm sqrt(c2)."""
    a1 = (g - lam1) / mu
    den = np.sqrt(1.0 + c2 + a1 * a1)
    return float(w @ (a1 / den)), float(w @ (1.0 / den))


def _bracket_decreasing(fun, lo, hi, grow, max_expand=80):
    """Expand [lo, hi] until fun(lo) > 0 > fun(hi); fun is decreasing."""
    f_lo, f_hi = fun(lo), fun(hi)
    expansions = 0
    while f_lo <= 0.0:
        lo, hi = grow(lo, -1), hi
        f_lo = fun(lo)
        expansions += 1
        if expansions > max_expand:
            raise SolverError("failed to bracket the decreasing residual from below")
    expansions = 0
    while f_hi >= 0.0:
        hi = grow(hi, +1)
        f_hi = fun(hi)
        expansions += 1
        if expansions > max_expand:
            raise SolverError("failed to bracket the decreasing residual from above")
    return lo, hi


def _brentq(f, xa, xb, xtol=2e-12, rtol=8.881784197001252e-16, maxiter=100):
    """Root of f on [xa, xb] by the Brent-Dekker iteration.

    A step-for-step port of the iteration behind ``scipy.optimize.brentq``,
    with the same meaning of ``xtol``, ``rtol`` (default 4 eps) and
    ``maxiter``, so it returns the same root bit for bit.  Each step tries
    inverse quadratic or secant interpolation and falls back to bisection
    when that step would not shrink the bracket fast enough; the iteration
    stops when half the bracket is below (xtol + rtol |x|) / 2.  Raises
    ``SolverError`` when f(xa) and f(xb) have the same sign, when f
    returns NaN, or when ``maxiter`` steps do not converge.
    """

    def call(x):
        fx = f(x)
        if fx != fx:
            raise SolverError(f"residual is NaN at x={x!r}")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise SolverError(f"residual has the same sign at both ends of [{xa!r}, {xb!r}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # keep the best estimate in xcur, the other bracket end in xblk
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise SolverError(f"root not converged after {maxiter} iterations", iterations=maxiter)


class _EvalCounter:
    def __init__(self):
        self.count = 0


def _solve_lambda1(g, w, mu, c2, target, counter: _EvalCounter, start=None) -> float:
    """Unique root of R_1(lam1) = target at fixed (mu, c2); R_1 is strictly
    decreasing in lam1 and spans (-1, 1).

    Without ``start`` the bracket spans the kernel range.  With it (a
    nearby root, e.g. at the previous mu) the bracket grows outward from
    start +- scale in steps of x4, so Brent starts on a bracket about as
    wide as the datum's turnover layer.
    """

    def resid(lam1):
        counter.count += 1
        return _axis_moments(g, w, lam1, mu, c2)[0] - target

    scale = max(mu * np.sqrt(1.0 + c2), 1e-6)
    if start is None:
        g_lo, g_hi = float(g.min()), float(g.max())
        lo, hi = g_lo - scale, g_hi + scale

        def grow(x, side):
            if side < 0:
                return g_lo - 2.0 * max(g_lo - x, scale)
            return g_hi + 2.0 * max(x - g_hi, scale)

    else:
        lo, hi = start - scale, start + scale

        def grow(x, side):
            return start + 4.0 * (x - start)

    lo, hi = _bracket_decreasing(resid, lo, hi, grow)
    return _brentq(resid, lo, hi, **_BRENTQ_KW)


def _positive_b_fallback(spec, g, w, c2, counter):
    """Nested bracketing solve: inner lam_1, outer mu.

    I evaluated at the inner-solved lam_1 is strictly increasing in mu
    and sweeps (0, sqrt(1 - a_1^2) / sqrt(1 + c2)), which contains the
    target b whenever the center value is admissible, so the outer
    bracket always exists.
    """
    a1, b = float(spec.a[0]), spec.b
    lam1 = None  # warm start of each inner solve: the latest outer iterate's lam_1

    def phi(mu):
        nonlocal lam1
        lam1 = _solve_lambda1(g, w, mu, c2, a1, counter, start=lam1)
        counter.count += 1
        return lam1, _axis_moments(g, w, lam1, mu, c2)[1] - b

    lo, hi = 1.0, 1.0
    f_lo, f_hi = phi(lo)[1], phi(hi)[1]
    expansions = 0
    while f_lo >= 0.0:
        lo *= 0.125
        f_lo = phi(lo)[1]
        expansions += 1
        if expansions > 80:
            raise SolverError("failed to bracket mu from below")
    expansions = 0
    while f_hi <= 0.0:
        hi *= 8.0
        f_hi = phi(hi)[1]
        expansions += 1
        if expansions > 80:
            raise SolverError("failed to bracket mu from above")
    mu = _brentq(lambda x: phi(x)[1], lo, hi, **_BRENTQ_KW)
    lam1 = _solve_lambda1(g, w, mu, c2, a1, counter, start=lam1)
    return lam1, mu


def _conditioning_warnings(spec: ProblemSpec) -> list[str]:
    out = []
    cap = np.sqrt(1.0 - float(spec.a @ spec.a))
    if spec.b > 0.0 and cap - spec.b < 1e-8:
        out.append(
            "b is within 1e-08 of its ceiling sqrt(1 - |a|^2); "
            "the moment system is near-degenerate"
        )
    if 0.0 < spec.b < 1e-8:
        out.append(
            "b is positive but below 1e-08; staying on the positive branch "
            "as requested, though the b = 0 branch is numerically adjacent"
        )
    return out


def _newton_positive(spec, rule, c2, tail_slope, chain, lam1, mu, max_iter, counter):
    """Damped Newton for the reduced pair on one quadrature rule.

    Falls back to the monotone nested bracketing when a step fails to
    reduce the residual, or when backtracking keeps inching forward
    without converging (extreme mu scales do this), so the iteration
    cannot diverge.
    """
    g = kernel_profile(spec.r, spec.n, rule.nodes)
    w = rule.weights
    target = np.array([float(spec.a[0]), spec.b])

    def assemble(l1, m_):
        return np.concatenate(([l1], tail_slope * m_))

    def residual_pair(l1, m_):
        counter.count += 1
        r1, vi = _axis_moments(g, w, l1, m_, c2)
        return np.array([r1, vi]) - target

    res = residual_pair(lam1, mu)
    used_fallback = False
    for _ in range(max_iter):
        if float(np.abs(res).max()) < 1e-13:
            break
        full_jac = jacobian_RI(spec, assemble(lam1, mu), mu, rule)
        red_jac = full_jac[[0, spec.m], :] @ chain
        try:
            step = np.linalg.solve(red_jac, -res)
        except np.linalg.LinAlgError:
            step = None
        moved = False
        if step is not None and np.all(np.isfinite(step)):
            alpha = 1.0
            for _ in range(30):
                cand = (lam1 + alpha * step[0], mu + alpha * step[1])
                if cand[1] > 0.0:
                    cand_res = residual_pair(*cand)
                    if float(np.abs(cand_res).max()) < float(np.abs(res).max()):
                        lam1, mu = cand
                        res = cand_res
                        moved = True
                        break
                alpha *= 0.5
        if not moved:
            lam1, mu = _positive_b_fallback(spec, g, w, c2, counter)
            res = residual_pair(lam1, mu)
            used_fallback = True
            break
    else:
        if float(np.abs(res).max()) >= 1e-13:
            lam1, mu = _positive_b_fallback(spec, g, w, c2, counter)
            res = residual_pair(lam1, mu)
            used_fallback = True
    if used_fallback:
        # a couple of Newton polish steps from the bracketed root
        for _ in range(3):
            full_jac = jacobian_RI(spec, assemble(lam1, mu), mu, rule)
            red_jac = full_jac[[0, spec.m], :] @ chain
            step = np.linalg.solve(red_jac, -res)
            cand = (lam1 + step[0], mu + step[1])
            if cand[1] <= 0.0:
                break
            cand_res = residual_pair(*cand)
            if float(np.abs(cand_res).max()) >= float(np.abs(res).max()):
                break
            lam1, mu = cand
            res = cand_res
    return lam1, mu


def _turnover_estimate(spec: ProblemSpec, rule: QuadratureRule) -> float | None:
    """Latitude of the datum turnover in the b -> 0 limit.

    The positive branch converges to the b = 0 datum as b drops, and the
    degenerate solver locates that datum's jump or kink latitude without
    any layer trouble (it integrates a sign function with an explicit
    breakpoint).  Deep grading around this estimate sidesteps the
    staircase pseudo-roots that appear when the layer sits far below the
    node resolution: the estimate is off by a bounded multiple of the
    layer width, which graded panels tolerate.
    """
    try:
        zero = solve_zero_b(ProblemSpec(spec.n, spec.m, spec.r, spec.a, 0.0), rule)
    except (SolverError, ValueError):
        return None
    if zero.jump_point is not None:
        return float(zero.jump_point)
    lam1 = float(zero.lam[0])
    r, n = spec.r, spec.n
    if kernel_profile(r, n, -1.0) < lam1 < kernel_profile(r, n, 1.0):
        return kernel_inverse(r, n, lam1)
    return None


def solve_positive_b(
    spec: ProblemSpec,
    rule: QuadratureRule | None = None,
    tol: float = 1e-10,
    max_iter: int = 80,
    x0: tuple[float, float] | None = None,
) -> LagrangeSolution:
    """Solve R(lam, mu) = a, I(lam, mu) = b for b > 0.

    Damped Newton on the reduced pair (lam_1, mu) with the analytic
    Jacobian, started at lam_1 = g(0), mu = 1 unless ``x0`` overrides
    it, safeguarded by the monotone bracketing fallback.  The returned
    residual is measured on the full (m+1)-dimensional system with a
    rule that resolves the datum's transition layer: small b forces
    small mu, and the layer then drops below what any fixed Gauss rule
    sees, so the solve is repeated on graded segmentations (centered
    first at the candidate root, then at the b = 0 turnover latitude)
    until a partition built at the accepted root confirms the moments.
    """
    if spec.b <= 0.0:
        raise ValueError(f"positive branch requires b > 0, got b={spec.b}")
    if rule is None:
        rule = zonal_rule(spec.n, DEFAULT_ORDER)
    warnings = _conditioning_warnings(spec)
    a_tail = spec.a[1:]
    tail_slope = -a_tail / spec.b  # lam_j = tail_slope_j * mu
    c2 = float(a_tail @ a_tail) / spec.b**2
    counter = _EvalCounter()

    if x0 is None:
        lam1, mu = float(kernel_profile(spec.r, spec.n, 0.0)), 1.0
    else:
        lam1, mu = float(x0[0]), float(x0[1])
        if mu <= 0.0:
            raise ValueError(f"initial mu must be positive, got {mu}")

    # chain-rule collapse of the full Jacobian onto (lam_1, mu)
    chain = np.zeros((spec.m + 1, 2))
    chain[0, 0] = 1.0
    chain[1 : spec.m, 1] = tail_slope
    chain[spec.m, 1] = 1.0

    def attempt(rule_k, l1, m_):
        l1, m_ = _newton_positive(
            spec, rule_k, c2, tail_slope, chain, l1, m_, max_iter, counter
        )
        lam_k = np.concatenate(([l1], tail_slope * m_))
        breaks_k = _layer_breakpoints(spec, l1, m_ * np.sqrt(1.0 + c2))
        check = _segment_quadrature(rule, breaks_k) if breaks_k else rule
        moments_k, vi = moments_RI(spec, lam_k, m_, check)
        resid = max(float(np.abs(moments_k - spec.a).max()), abs(vi - spec.b))
        return l1, m_, lam_k, breaks_k, check, resid

    first_error = None
    try:
        lam1, mu, lam, breaks, check_rule, residual = attempt(rule, lam1, mu)
    except SolverError as exc:
        # sub-resolution layers can pin lam1 onto a node where no mu
        # brackets the mass; treat exactly like an unconverged attempt
        first_error = exc
        lam, breaks, check_rule, residual = None, (), rule, np.inf
    if residual >= tol and (breaks or first_error is not None):
        # thin layer: re-anchor on a deep partition at the b = 0
        # turnover, then relocate onto partitions built at the root
        t_est = _turnover_estimate(spec, rule)
        stages = []
        if t_est is not None:
            deep = _segment_quadrature(rule, _graded_partition(t_est, 1e-13))
            start = (float(kernel_profile(spec.r, spec.n, t_est)), 1.0)
            stages.append((deep, start))
        stages.extend([(None, None)] * 2)  # relocations at the latest root
        for rule_k, start in stages:
            if rule_k is None:
                if not breaks:
                    break
                rule_k, start = check_rule, (lam1, mu)
            try:
                lam1, mu, lam, breaks, check_rule, residual = attempt(rule_k, *start)
            except SolverError:
                continue  # staircase pseudo-root deadlock; try the next stage
            if residual < tol:
                break
    if residual < tol:
        return LagrangeSolution(
            branch="positive_b",
            lam=lam,
            mu=float(mu),
            residual=residual,
            iterations=counter.count,
            breakpoints=breaks,
            warnings=tuple(warnings),
        )
    if first_error is not None and not np.isfinite(residual):
        raise first_error
    raise SolverError(
        f"moment solve stalled at residual {residual:.3e} (tol {tol:.1e})",
        residual=residual,
        iterations=counter.count,
    )


def _zero_b_axis(g, w, lam1, w2):
    """Rcal_1 and J = int dsigma/|Acal| for constant tail norm sqrt(w2) > 0."""
    acal1 = g - lam1
    den = np.sqrt(w2 + acal1 * acal1)
    return float(w @ (acal1 / den)), float(w @ (1.0 / den))


def _jump_latitude(rule: QuadratureRule, a1: float, counter: _EvalCounter) -> float:
    """Latitude t* with int sign(t - t*) dsigma = a1; the jump is handed
    to the rule as a breakpoint, so the moment is exact per evaluation."""

    def resid(t_star):
        counter.count += 1
        return (
            zonal_integrate(rule, lambda t: np.sign(t - t_star), breakpoints=[t_star])
            - a1
        )

    return _brentq(resid, -1.0 + 1e-13, 1.0 - 1e-13, **_BRENTQ_KW)


def solve_zero_b(
    spec: ProblemSpec,
    rule: QuadratureRule | None = None,
    tol: float = 1e-8,
) -> LagrangeSolution:
    """Solve Rcal(lam) = a on the degenerate branch b = 0.

    With a vanishing multiplier tail the datum is a two-valued latitude
    sign function and the single unknown is the jump latitude, found by
    bisection with the jump supplied to the rule as a breakpoint.  With
    a nonvanishing tail the datum is smooth and the unknowns reduce to
    (lam_1, |tail|), solved by nested bracketing.  A small tail bends
    the datum over a thin kink layer the plain rule cannot see, so as on
    the positive branch the solve is repeated on graded segmentations
    (anchored at the vanishing-tail jump latitude, then at the candidate
    roots) until one of them confirms the moments.
    """
    if spec.b != 0.0:
        raise ValueError(f"zero branch requires b = 0, got b={spec.b}")
    if rule is None:
        rule = zonal_rule(spec.n, DEFAULT_ORDER)
    warnings = []
    norm_a = float(np.linalg.norm(spec.a))
    if 1.0 - norm_a < 1e-6:
        warnings.append(
            "|a| is within 1e-06 of the sphere; multipliers are boundary-adjacent"
        )
    a1 = float(spec.a[0])
    a_tail = spec.a[1:]
    tail_norm = float(np.linalg.norm(a_tail))
    r, n = spec.r, spec.n
    counter = _EvalCounter()

    if tail_norm == 0.0:
        t_star = _jump_latitude(rule, a1, counter)
        lam = np.zeros(spec.m)
        lam[0] = kernel_profile(r, n, t_star)
        moments = moments_Rcal(spec, lam, rule)
        residual = float(np.abs(moments - spec.a).max())
        if not residual < tol:
            raise SolverError(
                f"jump-latitude solve stalled at residual {residual:.3e}",
                residual=residual,
                iterations=counter.count,
            )
        return LagrangeSolution(
            branch="zero_b",
            lam=lam,
            mu=None,
            residual=residual,
            iterations=counter.count,
            jump_point=float(t_star),
            warnings=tuple(warnings),
        )

    if tail_norm < 1e-4:
        warnings.append(
            "|tail of a| below 1e-04: the datum is close to the two-valued "
            "degenerate one and quadrature accuracy degrades"
        )

    def smooth_solve(work_rule):
        g = kernel_profile(r, n, work_rule.nodes)
        w = work_rule.weights

        def solve_lam1(w2):
            def resid(lam1):
                counter.count += 1
                return _zero_b_axis(g, w, lam1, w2)[0] - a1

            g_lo, g_hi = float(g.min()), float(g.max())
            scale = max(np.sqrt(w2), 1e-6)

            def grow(x, side):
                if side < 0:
                    return g_lo - 2.0 * max(g_lo - x, scale)
                return g_hi + 2.0 * max(x - g_hi, scale)

            lo, hi = _bracket_decreasing(resid, g_lo - scale, g_hi + scale, grow)
            return _brentq(resid, lo, hi, **_BRENTQ_KW)

        def mismatch(tail_field):
            w2 = tail_field * tail_field
            lam1 = solve_lam1(w2)
            counter.count += 1
            return lam1, tail_field * _zero_b_axis(g, w, lam1, w2)[1] - tail_norm

        lo = hi = max(tail_norm, 1e-3)
        f_lo = mismatch(lo)[1]
        expansions = 0
        while f_lo >= 0.0:
            lo *= 0.25
            f_lo = mismatch(lo)[1]
            expansions += 1
            if expansions > 80:
                raise SolverError("failed to bracket the tail field from below")
        f_hi = mismatch(hi)[1]
        expansions = 0
        while f_hi <= 0.0:
            hi *= 4.0
            f_hi = mismatch(hi)[1]
            expansions += 1
            if expansions > 80:
                raise SolverError("failed to bracket the tail field from above")
        tail_field = _brentq(lambda x: mismatch(x)[1], lo, hi, **_BRENTQ_KW)
        lam1 = solve_lam1(tail_field * tail_field)
        j_value = _zero_b_axis(g, w, lam1, tail_field * tail_field)[1]
        return lam1, float(tail_field), j_value

    def attempt(work_rule):
        lam1_k, field_k, j_k = smooth_solve(work_rule)
        lam_k = np.concatenate(([lam1_k], -a_tail / j_k))
        breaks_k = _layer_breakpoints(spec, lam1_k, field_k)
        moments_k = moments_Rcal(spec, lam_k, rule, breakpoints=breaks_k or None)
        return lam_k, breaks_k, float(np.abs(moments_k - spec.a).max())

    first_error = None
    try:
        lam, breaks, residual = attempt(rule)
    except SolverError as exc:
        # a kink layer thinner than the plain rule's node spacing can
        # defeat the bracketing; the graded stages below still apply
        first_error = exc
        lam, breaks, residual = None, (), np.inf
    if residual >= tol and (breaks or first_error is not None):
        # thin kink layer (small tail): re-anchor on a deep partition at
        # the vanishing-tail jump latitude, then relocate onto partitions
        # built at the latest root until one of them confirms the moments
        stages = []
        try:
            t_jump = _jump_latitude(rule, a1, counter)
        except SolverError:
            t_jump = None
        if t_jump is not None:
            stages.append(_segment_quadrature(rule, _graded_partition(t_jump, 1e-13)))
        stages.extend([None] * 2)
        for work in stages:
            if work is None:
                if not breaks:
                    break
                work = _segment_quadrature(rule, breaks)
            try:
                lam, breaks, residual = attempt(work)
            except SolverError:
                continue
            if residual < tol:
                break
    if first_error is not None and not np.isfinite(residual):
        raise first_error
    if not residual < tol:
        raise SolverError(
            f"degenerate-branch solve stalled at residual {residual:.3e}",
            residual=residual,
            iterations=counter.count,
        )
    return LagrangeSolution(
        branch="zero_b",
        lam=lam,
        mu=None,
        residual=residual,
        iterations=counter.count,
        jump_point=None,
        breakpoints=breaks,
        warnings=tuple(warnings),
    )


def lambda_path_point(spec: ProblemSpec, mu: float, rule: QuadratureRule | None = None):
    """Solve R(lam, mu) = a for lam at a prescribed mu > 0.

    Returns (lam, I).  Sweeping mu and recording I traces the solved
    manifold on which I is strictly increasing from 0 toward
    sqrt(1 - |a|^2); the b-target ignores spec.b.
    """
    if not mu > 0.0:
        raise ValueError(f"need mu > 0, got mu={mu}")
    if rule is None:
        rule = zonal_rule(spec.n, DEFAULT_ORDER)
    g = kernel_profile(spec.r, spec.n, rule.nodes)
    w = rule.weights
    a1 = float(spec.a[0])
    a_tail = spec.a[1:]
    tail_norm = float(np.linalg.norm(a_tail))
    counter = _EvalCounter()
    if tail_norm == 0.0:
        lam1 = _solve_lambda1(g, w, mu, 0.0, a1, counter)
        value_i = _axis_moments(g, w, lam1, mu, 0.0)[1]
        lam = np.zeros(spec.m)
        lam[0] = lam1
        return lam, value_i

    def mismatch(tail_field):
        c2 = tail_field * tail_field
        lam1 = _solve_lambda1(g, w, mu, c2, a1, counter)
        return lam1, tail_field * _axis_moments(g, w, lam1, mu, c2)[1] - tail_norm

    lo = hi = max(tail_norm, 1e-3)
    f_lo = mismatch(lo)[1]
    while f_lo >= 0.0:
        lo *= 0.25
        f_lo = mismatch(lo)[1]
        if lo < 1e-300:
            raise SolverError("failed to bracket the tail field from below")
    f_hi = mismatch(hi)[1]
    while f_hi <= 0.0:
        hi *= 4.0
        f_hi = mismatch(hi)[1]
        if hi > 1e300:
            raise SolverError("failed to bracket the tail field from above")
    tail_field = _brentq(lambda x: mismatch(x)[1], lo, hi, **_BRENTQ_KW)
    c2 = tail_field * tail_field
    lam1 = _solve_lambda1(g, w, mu, c2, a1, counter)
    value_i = _axis_moments(g, w, lam1, mu, c2)[1]
    lam = np.concatenate(([lam1], -mu * (a_tail / tail_norm) * tail_field))
    return lam, value_i
