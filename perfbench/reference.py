"""Reference values computed apart from the package under test.

Nothing here imports ``harmonic_schwarz``.  Every check of the benchmark
compares the program's output with a number from this module:

* The sharp bound of <F(x), e> on the closed r-ball, for F(0) = c, is
  the minimum of the continuum dual

      q(N) = N.c + int |K e1 - N| dsigma,   K = (1 - r^2) g(t),

  over N in R^{m+1} (strong duality; N = (nu, -eta) in the notation of
  the package).  The dual is invariant under rotations that fix e1, so
  with c1 = <c, e> and rho = |c - c1 e| it reduces to two unknowns,

      q(nu1, s) = nu1 c1 - s rho + int sqrt((K - nu1)^2 + s^2) dsigma,

  minimized over nu1 real and s >= 0 (s = 0 when rho = 0).  The bound
  of the package's rotated problem and of the axis problem are both
  this minimum, so one routine checks ``axis_bound``,
  ``directional_bound``, ``region_envelope`` and the CLI.
* Latitude integrals use the polar angle theta (t = cos theta), where
  dsigma = c_n sin^{n-2}(theta) dtheta has no endpoint singularity for
  any n, and Gauss-Legendre panels.  Panels are graded geometrically
  toward the pole, where the kernel concentrates as r -> 1, and around
  the crossing K = nu1, where the integrand kinks (s = 0) or bends
  inside a layer of width s / |K'| (small s).  The package instead uses
  Gauss-Jacobi rules in t, so the two share no quadrature code.
* The kernel is carried as K / K_max.  At n = 16 and r = 0.999 the
  kernel reaches about 1e48, and the scaled form keeps the arithmetic
  of the dual at order one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betaincinv

_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)


def _theta_edges(r: float, extra=()) -> np.ndarray:
    """Panel edges on [0, pi]: graded toward the pole at scale 1 - r."""
    edges = [0.0, math.pi]
    d = (1.0 - r) / 16.0
    while d < 1.0:
        edges.append(d)
        d *= 3.0
    edges.extend(t for t in extra if 0.0 < t < math.pi)
    return np.unique(np.asarray(edges, dtype=float))


def _graded_around(center: float, width: float) -> list[float]:
    """Edges packing panels geometrically around ``center`` down to ``width``."""
    out = [center]
    d = max(width, 1e-15 * max(center, 1.0))
    while d < 1.0:
        out.append(center - d)
        out.append(center + d)
        d *= 3.0
    return out


def _nodes(edges: np.ndarray, n: int):
    """Quadrature (theta, weight) on the given panels for the density
    sin^{n-2}(theta) dtheta, unnormalized."""
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    theta = (lo + half * (_GL_X[None, :] + 1.0)).ravel()
    w = (half * _GL_W[None, :]).ravel() * np.sin(theta) ** (n - 2)
    return theta, w


class LatitudeKernel:
    """The axis Poisson kernel of a point r N, on the sphere S^{n-1}.

    ``scaled(theta)`` is K / K_max with K_max = K(0) = (1 + r)/(1 - r)^(n-1).
    """

    def __init__(self, n: int, r: float):
        if n < 2 or not 0.0 <= r < 1.0:
            raise ValueError(f"need n >= 2 and 0 <= r < 1, got n={n}, r={r}")
        self.n = n
        self.r = r
        self.kmax = math.exp(math.log1p(r) - (n - 1) * math.log1p(-r))
        # normalizing constant of sin^{n-2} on [0, pi], in closed form
        self.c_n = math.exp(math.lgamma(0.5 * n) - math.lgamma(0.5 * (n - 1))) / math.sqrt(
            math.pi
        )

    def scaled(self, theta: np.ndarray) -> np.ndarray:
        r, n = self.r, self.n
        # 1 + r^2 - 2 r cos(theta) over (1 - r)^2, without cancellation
        base = 1.0 + 4.0 * r * np.sin(0.5 * theta) ** 2 / (1.0 - r) ** 2
        return base ** (-0.5 * n)

    def crossing(self, level: float) -> float | None:
        """Polar angle where K / K_max equals ``level``, if inside (0, pi)."""
        if not 0.0 < level < 1.0:
            return None
        r = self.r
        s2 = (level ** (-2.0 / self.n) - 1.0) * (1.0 - r) ** 2 / (4.0 * r) if r > 0 else math.inf
        if not 0.0 < s2 < 1.0:
            return None
        return 2.0 * math.asin(math.sqrt(s2))

    def slope(self, theta: float) -> float:
        """|d(K / K_max)/dtheta| at theta."""
        r, n = self.r, self.n
        base = 1.0 + 4.0 * r * math.sin(0.5 * theta) ** 2 / (1.0 - r) ** 2
        dbase = 2.0 * r * math.sin(theta) / (1.0 - r) ** 2
        return 0.5 * n * base ** (-0.5 * n - 1.0) * dbase

    def rule(self, extra=()):
        """(theta, normalized weight, K / K_max) on panels with extra edges."""
        theta, w = _nodes(_theta_edges(self.r, extra), self.n)
        return theta, w * self.c_n, self.scaled(theta)


def _dual_terms(kern: LatitudeKernel, c1: float, rho: float, x: float, y: float):
    """q, gradient and Hessian of the scaled dual at (x, y) = (nu1, s) / K_max."""
    extra = []
    t_star = kern.crossing(x)
    if t_star is not None:
        width = y / max(kern.slope(t_star), 1e-300) if y > 0 else 0.0
        extra = _graded_around(t_star, max(width / 8.0, 1e-15))
    _, w, k = kern.rule(extra)
    d = k - x
    big_r = np.sqrt(d * d + y * y)
    q = x * c1 - y * rho + float(w @ big_r)
    if y > 0.0:
        inv = 1.0 / big_r
        g = np.array([c1 - float(w @ (d * inv)), -rho + float(w @ (y * inv))])
        inv3 = w * inv**3
        h11 = float(inv3 @ (y * y * np.ones_like(d)))
        h12 = float(inv3 @ (d * y))
        h22 = float(inv3 @ (d * d))
        return q, g, np.array([[h11, h12], [h12, h22]])
    return q, np.array([c1 - float(w @ np.sign(d)), 0.0]), None


def _jump_level(kern: LatitudeKernel, c1: float) -> float:
    """Scaled nu1 where int sign(K - nu1) dsigma = c1 (the rho = 0 optimum).

    The cap theta < theta* must carry sigma-mass (1 + c1) / 2; that mass
    is the regularized incomplete beta function I_x(k, k), k = (n-1)/2,
    at x = sin^2(theta*/2).
    """
    k = 0.5 * (kern.n - 1)
    x = float(betaincinv(k, k, 0.5 * (1.0 + c1)))
    theta = 2.0 * math.asin(math.sqrt(min(max(x, 0.0), 1.0)))
    return float(kern.scaled(np.array([theta]))[0])


def dual_bound(n: int, r: float, c1: float, rho: float) -> tuple[float, float, float]:
    """Minimum of the reduced dual, with its minimizer (nu1, s) unscaled.

    ``c1`` is the component of the center value along the direction and
    ``rho`` the norm of the rest, c1^2 + rho^2 < 1.
    """
    if rho < 0.0 or c1 * c1 + rho * rho >= 1.0:
        raise ValueError(f"center (c1={c1}, rho={rho}) must lie inside the unit ball")
    kern = LatitudeKernel(n, r)
    x = _jump_level(kern, c1)
    if rho == 0.0:
        q, _, _ = _dual_terms(kern, c1, 0.0, x, 0.0)
        return q * kern.kmax, x * kern.kmax, 0.0
    # Damped Newton in (x, y): the dual is convex there, so the Newton
    # direction descends; a step may shrink y at most tenfold, which keeps
    # y > 0 and walks down to the tiny s of near-degenerate centers.
    y = rho * max(x, float(kern.scaled(np.array([math.pi]))[0]))
    q, g, h = _dual_terms(kern, c1, rho, x, y)
    for _ in range(100):
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            break
        decrement = -float(g @ step)
        if not decrement > 1e-26 * abs(q):
            break
        alpha = 1.0 if step[1] >= 0.0 else min(1.0, 0.9 * y / -step[1])
        for _ in range(30):
            cand = (x + alpha * step[0], y + alpha * step[1])
            cq, cg, ch = _dual_terms(kern, c1, rho, *cand)
            if cq <= q - 1e-4 * alpha * decrement + 4e-16 * abs(q):
                break
            alpha *= 0.5
        else:
            break
        (x, y), q, g, h = cand, cq, cg, ch
        if abs(alpha * step[0]) <= 1e-14 * abs(x) and abs(alpha * step[1]) <= 1e-14 * y:
            break
    return q * kern.kmax, x * kern.kmax, y * kern.kmax


def full_multiplier(a, b: float, e, nu1: float, s: float) -> np.ndarray:
    """The full dual minimizer N = nu1 e - s (c - c1 e) / rho in R^{m+1}."""
    c = np.concatenate((np.asarray(a, dtype=float), [float(b)]))
    e = np.asarray(e, dtype=float)
    perp = c - float(c @ e) * e
    rho = float(np.linalg.norm(perp))
    out = nu1 * e
    if rho > 0.0:
        out = out - s * perp / rho
    return out


def extremal_datum(n: int, r: float, big_n: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Extremal boundary datum (K e1 - N) / |K e1 - N| at latitudes t, shape (m+1, len(t)).

    At s = 0 the datum is the sign of K - nu1 along e1.
    """
    t = np.asarray(t, dtype=float)
    kern = (1.0 - r * r) * (1.0 + r * r - 2.0 * r * t) ** (-0.5 * n)
    d = -np.repeat(big_n[:, None], t.size, axis=1)
    d[0] += kern
    norm = np.sqrt(np.einsum("ij,ij->j", d, d))
    return d / norm[None, :]


def axis_poisson(datum, n: int, rho: float, breakpoints=()) -> np.ndarray:
    """Poisson extension at rho N of a zonal datum, shape (components,).

    ``datum`` maps latitudes t to an array of shape (components, len(t));
    ``breakpoints`` are latitudes where it jumps or bends and become
    panel edges.
    """
    kern = LatitudeKernel(n, rho)
    extra = [math.acos(min(max(float(t), -1.0), 1.0)) for t in breakpoints]
    theta, w, k = kern.rule(extra)
    values = np.asarray(datum(np.cos(theta)), dtype=float)
    return kern.kmax * (values @ (w * k))


def discrete_dual(weights, kernel, a, b: float, big_n: np.ndarray) -> float:
    """Dual value N.c + sum_k w_k |K_k e1 - N| of a node program.

    For every N with a nonpositive last entry it bounds the program's
    maximum from above (weak duality), whatever the nodes.
    """
    c = np.concatenate((np.asarray(a, dtype=float), [float(b)]))
    d = -np.repeat(big_n[None, :], len(weights), axis=0)
    d[:, 0] += np.asarray(kernel, dtype=float)
    return float(big_n @ c) + float(np.asarray(weights) @ np.sqrt(np.einsum("ij,ij->i", d, d)))


def sphere_kernel(nodes: np.ndarray, n: int, r: float) -> np.ndarray:
    """Poisson kernel of the point r N at sphere nodes, shape (len(nodes),)."""
    pole = np.zeros(n)
    pole[-1] = r
    diff = np.asarray(nodes, dtype=float) - pole
    return (1.0 - r * r) * np.einsum("ij,ij->i", diff, diff) ** (-0.5 * n)


def reduced_center(a, b: float, e) -> tuple[float, float]:
    """(c1, rho) of the center value (a, b) seen along the unit direction e."""
    c = np.concatenate((np.asarray(a, dtype=float), [float(b)]))
    e = np.asarray(e, dtype=float)
    c1 = float(c @ e)
    rho = float(np.linalg.norm(c - c1 * e))
    return c1, rho
