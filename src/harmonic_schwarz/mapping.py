"""Extremal boundary data and their harmonic extensions.

The boundary datum attached to a solved moment system is a map
S^{n-1} -> closed unit ball of R^{m+1} whose components depend on omega
only through the latitude t = <omega, N>.  ``solver.datum`` gives it:

* b > 0:  the unit vector (u, v) of (g(t) l - lam, mu), mu > 0.
* b = 0:  the same with mu = 0, so u is unimodular and v = 0; with a
  vanishing multiplier tail this degenerates to u_1 = sign(t - t*), the
  two-valued datum jumping at the solved latitude t*.
* b < 0:  the datum for |b| with the last component negated; the first
  m components, and hence every first-coordinate functional, coincide
  with the |b| case.

The harmonic extension is the Poisson integral against
(1 - |x|^2)/|x - omega|^n.  On the polar axis it reduces to a zonal
integral of kernel_profile(|x|, n, t) times the datum; at a general
point x = rho (cos(theta) N + sin(theta) e) it reduces to a biaxial
integral over omega's latitude t and inner coordinate s, with
<omega, e> = sqrt(1 - t^2) s (``sphere.BiaxialRule``), since |x - omega|^2
= c - d s for c = (1 - rho)^2 + 2 rho (1 - cos(theta) t) and d = 2 rho
sin(theta) sqrt(1 - t^2).  The datum depends on t alone, so the kernel is
summed over s first and meets the datum at the latitude nodes only.
Latitude jumps of the datum and, for r > 0.95, the polar cap where the
kernel concentrates reach the rules as breakpoints, a thin turnover layer
as its own sinh-mapped panel (``solver.Layer``).

Each single-center path is the batch of one: ``boundary_map`` is
``boundary_maps`` of one spec, and ``eval_on_axis`` and ``axis_values``
both run the one axis evaluator ``_on_axis``, which takes all components
of many maps in one pass.  The map's rule ``bmap.rule`` sets every
evaluator's accuracy: ``eval_batch`` runs on the biaxial rule of half its
order, and both error estimates compare the map with ``_halved(bmap)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .solver import (
    BATCH_ROWS,
    LagrangeSolution,
    Layer,
    ProblemSpec,
    _axis_cap_breakpoints,
    _segment_sums,
    datum,
    kernel_profile,
    solve_batch,
)
from .sphere import (
    DEFAULT_ORDER,
    QuadratureRule,
    biaxial_rule,
    segmented_nodes,
    segmented_outer,
    zonal_rule,
)

__all__ = [
    "BoundaryMap",
    "MapEvaluation",
    "boundary_map",
    "boundary_maps",
    "constant_map",
    "eval_on_axis",
    "axis_values",
    "eval_general",
    "eval_batch",
    "constraint_residuals",
]


@dataclass
class BoundaryMap:
    """Latitude-profile boundary datum together with its provenance.

    ``components`` evaluates the datum of ``solution`` (see
    ``solver.datum``), or the constant (a, b) when ``solution`` is None.
    ``breakpoints`` lists latitudes where the datum jumps or concentrates
    curvature, and where the kernel of radius spec.r concentrates; they
    and the solution's turnover ``layer`` go to every quadrature.
    """

    spec: ProblemSpec
    branch: str
    solution: LagrangeSolution | None
    breakpoints: tuple
    rule: QuadratureRule
    layer: Layer | None = None

    def components(self, t: np.ndarray) -> np.ndarray:
        """All m+1 component profiles stacked, shape (m+1, len(t))."""
        return datum([self.spec], [self.solution], t)


@dataclass(frozen=True)
class MapEvaluation:
    """Poisson-extension value at a point, with a two-grid error estimate."""

    x: np.ndarray
    value: np.ndarray
    quadrature_error_estimate: float


def boundary_map(spec: ProblemSpec, rule: QuadratureRule | None = None) -> BoundaryMap:
    """Solve the moment system for spec and wrap the extremal datum: the
    batch of one of ``boundary_maps``."""
    return boundary_maps([spec], rule)[0]


def boundary_maps(specs, rule: QuadratureRule | None = None) -> list:
    """The boundary maps of specs that share n and r, with all their moment
    systems solved in one batch (``solver.solve_batch``, which also solves
    a negative b as |b| and raises ``SolverError`` when a residual misses
    its branch's tolerance); each map takes its solution's breakpoints and
    layer.  No specs give no maps."""
    specs = list(specs)
    if rule is None and specs:
        rule = zonal_rule(specs[0].n, DEFAULT_ORDER)
    sols = solve_batch(specs, rule)
    return [BoundaryMap(spec, sol.branch, sol, sol.breakpoints, rule, sol.layer) for spec, sol in zip(specs, sols)]


def constant_map(spec: ProblemSpec, rule: QuadratureRule | None = None) -> BoundaryMap:
    """Constant datum u = a, v = b; its extension is the constant (a, b).

    Useful as a strictly admissible comparison map: it meets every
    membership constraint of the extremal problem without being
    extremal.
    """
    if rule is None:
        rule = zonal_rule(spec.n, DEFAULT_ORDER)
    return BoundaryMap(spec, "constant", None, (), rule)


def eval_on_axis(bmap: BoundaryMap, rho: float) -> MapEvaluation:
    """Poisson extension at rho * N, 0 <= rho < 1.

    The axis evaluator ``_on_axis`` run on the map and on ``_halved(bmap)``
    in one pass; the two are compared to report a quadrature error
    estimate alongside the value.
    """
    _check_radius(rho)
    value, coarse = _on_axis([bmap, _halved(bmap)], rho).T
    x = np.zeros(bmap.spec.n)
    x[-1] = rho
    return MapEvaluation(
        x=x, value=value, quadrature_error_estimate=float(np.abs(value - coarse).max())
    )


def axis_values(maps, rho: float) -> np.ndarray:
    """First component of each map's Poisson extension at rho * N.

    Bit for bit ``eval_on_axis(bmap, rho).value[0]``, without the error
    estimate: the first row of ``_on_axis`` at each map's own rule, for
    maps that share n, m and r (an envelope's rotated problems do),
    ``solver.BATCH_ROWS`` maps a pass; empty for no maps.
    """
    _check_radius(rho)
    if len({(bmap.spec.n, bmap.spec.m, bmap.spec.r) for bmap in maps}) > 1:
        raise ValueError("axis_values needs maps that share n, m and r")
    if not maps:
        return np.zeros(0)
    passes = [maps[k : k + BATCH_ROWS] for k in range(0, len(maps), BATCH_ROWS)]
    return np.concatenate([_on_axis(part, rho)[0] for part in passes])


def _check_radius(rho: float) -> None:
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"need 0 <= rho < 1, got rho={rho}")


def _halved(bmap: BoundaryMap) -> BoundaryMap:
    """The map on its rule at half order (at least 8): both evaluators'
    error estimate compares a value with this map's."""
    return replace(bmap, rule=zonal_rule(bmap.spec.n, max(bmap.rule.order // 2, 8)))


def _on_axis(maps, rho: float) -> np.ndarray:
    """u(N) + int (u - u(N)) P at rho * N for every component u of each
    map's datum, each map on its own rule: shape (m+1, K).

    Taken so, as P has unit mass: P peaks within (1 - rho)^2 of the pole,
    so rounded nodes miss its mass by ~1e-16 / (1 - rho)^2.  Each map is
    integrated on its breakpoints and layer plus rho's cap grading (maps
    with the same rule, breakpoints and layer share nodes), its data and
    pole values come from one ``solver.datum`` call, and each integral is
    its map's own segment sum, so a map's column is the same in any batch.
    """
    cap, shared, nodes = _axis_cap_breakpoints(rho), {}, []
    for bmap in maps:
        key = (id(bmap.rule), bmap.breakpoints, id(bmap.layer))
        if key not in shared:
            shared[key] = segmented_nodes(bmap.rule, tuple(sorted({*bmap.breakpoints, *cap})), bmap.layer)
        nodes.append(shared[key])
    sizes, count = [t.size for t, _ in nodes], len(maps)
    t = np.concatenate([*(t for t, _ in nodes), np.ones(count)])  # every map's nodes, then its pole
    specs, sols = [bmap.spec for bmap in maps], [bmap.solution for bmap in maps]
    comps = datum(specs * 2, sols * 2, t, sizes + [1] * count)
    pole, comps = comps[:, -count:], comps[:, :-count]
    kernel = (1.0 - rho * rho) * kernel_profile(rho, maps[0].spec.n, t[:-count])
    w = np.concatenate([w for _, w in nodes])
    starts = list(accumulate(sizes[:-1], initial=0))
    return pole + _segment_sums((comps - np.repeat(pole, sizes, axis=1)) * (w * kernel), starts)


# Kernel values per block of eval_batch: at most 2^16 doubles (512 KB),
# formed in two buffers made once per call and reused by every block.
# Measured on the interior workload's cloud calls (16 calls, 10,304
# points, seed 21; 2-core x86-64, Python 3.11.7, numpy 2.4.6, one BLAS
# thread), six sweeps in two orders: 7,750-9,070 points/s for blocks of
# 2^15 values, 7,840-8,530 at 2^16, 7,660-8,350 at 2^17, where the
# 65,536-pair jump rules take two points a block, and 6,180-6,810 at
# 2^18, which outgrows the cache.  Fresh 16 MB blocks once ran at 3,990
# points/s against 6,300 with reuse: glibc maps and unmaps blocks that
# large on every block, so the reuse keeps the rate clear of its mmap
# thresholds.
_BLOCK_VALUES = 1 << 16


def _polar(points: np.ndarray, n: int):
    """Split each row of points, shape (B, n), into (rho, cos_theta,
    sin_theta) about the polar axis N = e_n; the origin is (0, 1, 0)."""
    if points.ndim != 2 or points.shape[1] != n:
        raise ValueError(f"points must have shape (B, {n})")
    bad = ~np.isfinite(points).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"points must be finite, got row {k}: {points[k]}")
    rho = np.linalg.norm(points, axis=1)
    if np.any(rho >= 1.0):
        k = int(np.argmax(rho >= 1.0))
        raise ValueError(f"need |x| < 1, got |x|={rho[k]} at row {k}")
    origin = rho < 1e-14
    scale = np.where(origin, 1.0, rho)
    cos_t = np.where(origin, 1.0, points[:, -1] / scale)
    sin_t = np.where(origin, 0.0, np.linalg.norm(points[:, :-1], axis=1) / scale)
    return np.where(origin, 0.0, rho), cos_t, sin_t


def _inverse_power(base: np.ndarray, n: int, work: np.ndarray) -> None:
    """Overwrite base with base ** (-n/2); work, of base's shape, is scratch.

    base^(n//2) by squarings, times sqrt(base) for odd n, then one
    division.  On 65,536 values pow took 130 us, a multiply 23, a
    division 33 and a square root 50, so n = 4 costs 56 us and n = 3 105.
    """
    power = base
    for bit in f"{n // 2:b}"[1:]:
        np.multiply(power, power, out=work)
        power = work
        if bit == "1":
            np.multiply(power, base, out=work)
    if n % 2:
        root = work if power is base else base
        np.sqrt(base, out=root)
        np.multiply(power, root, out=base)
        power = base
    np.divide(1.0, power, out=base)


def eval_batch(bmap: BoundaryMap, points: np.ndarray) -> np.ndarray:
    """Poisson extension at many interior points, shape (B, m+1).

    A map's rule of order k sets the rule: ``biaxial_rule(n, k // 2)``, of
    latitude order k/2 and inner order k/4.  Values depend on each point
    only through (|x|, <x, N>), so the rule's factors and the datum on its
    latitude nodes (512 for a jump rule of 65,536 node pairs) are shared
    across the batch.  Every point is checked (finite, |x| < 1) and
    decomposed in one pass; the kernel is then formed in blocks of at most
    ``_BLOCK_VALUES`` values, laid out (inner, points x latitude) in two
    buffers made once per call and reused by every block.  Per block, c
    and d are formed per (point, latitude) into one (2, points x latitude)
    buffer; then five passes over the kernel buffer at n = 3 and four at
    n = 4: c - d s as one product [1, -s] @ [c; d], the power -n/2 by
    ``_inverse_power`` and one product with the inner weights.  2,048
    points at n = 3, r = 0.5 take 0.19-0.21 s on a smooth datum and
    0.37-0.42 s on a jump (n = 4: 0.11-0.14 s and 0.23-0.29 s); 2,000
    points at n = 2 take 6.1-8.9 ms, from run to run.

    The rule has no grading toward the point, so accuracy fails near the
    sphere without any flag: against a 1024 x 512 biaxial rule the values
    are off by about 4e-12 at |x| = 0.9, 4e-6 at 0.95 and 1e-3 at 0.97
    (n = 3; n = 4 about five times more), until ROADMAP item 2 lands.
    """
    n = bmap.spec.n
    rule = biaxial_rule(n, bmap.rule.order // 2)
    rho, cos_t, sin_t = _polar(np.asarray(points, dtype=float), n)
    t, w = segmented_outer(rule, bmap.breakpoints, bmap.layer)
    s, v = rule.inner.nodes, rule.inner.weights
    wu = (w * bmap.components(t)).T  # (latitude, m+1): the weighted datum
    root = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    one_t, lead = np.stack((np.ones(t.size), t)), np.column_stack((np.ones(rho.size), -cos_t))
    one_s = np.column_stack((np.ones(s.size), -s))  # c - d s = [1, -s] @ [c; d]
    out = np.empty((rho.size, bmap.spec.m + 1))
    rows = max(1, min(rho.size, _BLOCK_VALUES // (s.size * t.size)))
    kern_bufs, cd_buf = np.empty((2, s.size * rows * t.size)), np.empty(2 * rows * t.size)
    # c = (1-rho)^2 + 2 rho (1 - cos t), arranged to stay stable near the pole
    gap2, twice, mass = (1.0 - rho) ** 2, 2.0 * rho, 1.0 - rho * rho
    for start in range(0, rho.size, rows):
        block = slice(start, min(start + rows, rho.size))
        size = block.stop - start
        cd = cd_buf[: 2 * size * t.size].reshape(2, size, t.size)
        kern, work = kern_bufs[:, : s.size * size * t.size].reshape(2, s.size, -1)
        c, d = cd
        np.matmul(lead[block], one_t, out=c)  # 1 - cos t
        np.multiply(twice[block, None], c, out=c)
        np.add(gap2[block, None], c, out=c)
        np.multiply.outer(twice[block] * sin_t[block], root, out=d)
        np.matmul(one_s, cd.reshape(2, -1), out=kern)
        _inverse_power(kern, n, work)
        np.matmul(v, kern, out=c.reshape(-1))  # sum over the inner nodes
        out[block] = (c @ wu) * mass[block, None]
    return out


def eval_general(bmap: BoundaryMap, x) -> MapEvaluation:
    """Poisson extension at an arbitrary interior point.

    The value is ``eval_batch``'s, with its silent error near the sphere
    (about 4e-12 at |x| = 0.9, 4e-6 at 0.95, 1e-3 at 0.97).  The estimate
    is ``eval_on_axis``'s half-order comparison, here of ``eval_batch`` on
    the map and on ``_halved(bmap)``, and does not track that error: it
    reads 1e-6 to 3e-6 at 0.9 and 1e-3 to 3e-3 at 0.95 (n = 3).  On the
    rules' factors a point takes 0.3 ms (n = 3, smooth), against 1.7-2.0
    ms when each call expanded its rule to node pairs.
    """
    x = np.asarray(x, dtype=float)
    value, coarse = (eval_batch(m, x[None, :])[0] for m in (bmap, _halved(bmap)))
    return MapEvaluation(
        x=x, value=value, quadrature_error_estimate=float(np.abs(value - coarse).max())
    )


def constraint_residuals(bmap: BoundaryMap):
    """Membership residuals (|int u - a|, |int v - b|) of the datum on
    the map's own rule."""
    t, w = segmented_nodes(bmap.rule, bmap.breakpoints, bmap.layer)
    comps = bmap.components(t)
    means = comps @ w
    res_a = float(np.linalg.norm(means[: bmap.spec.m] - bmap.spec.a))
    res_b = float(abs(means[bmap.spec.m] - bmap.spec.b))
    return res_a, res_b
