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
of many maps in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    BiaxialRule,
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

    The axis evaluator ``_on_axis`` run on the map at its own rule and at
    half order, both in one pass; the two are compared to report a
    quadrature error estimate alongside the value.
    """
    _check_radius(rho)
    half = zonal_rule(bmap.spec.n, max(bmap.rule.order // 2, 8))
    value, coarse = _on_axis([bmap, bmap], rho, [bmap.rule, half]).T
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
    return np.concatenate([_on_axis(part, rho, [bmap.rule for bmap in part])[0] for part in passes])


def _check_radius(rho: float) -> None:
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"need 0 <= rho < 1, got rho={rho}")


def _on_axis(maps, rho: float, rules) -> np.ndarray:
    """u(N) + int (u - u(N)) P at rho * N for every component u of each
    map's datum, map k on ``rules[k]``: shape (m+1, K).

    Taken so, as P has unit mass: P peaks within (1 - rho)^2 of the pole,
    so rounded nodes miss its mass by ~1e-16 / (1 - rho)^2.  Each map is
    integrated on its breakpoints and layer plus rho's cap grading (maps
    with the same rule, breakpoints and layer share nodes), its data and
    pole values come from one ``solver.datum`` call, and each integral is
    its map's own segment sum, so a map's column is the same in any batch.
    """
    cap, shared, nodes = _axis_cap_breakpoints(rho), {}, []
    for bmap, rule in zip(maps, rules):
        key = (id(rule), bmap.breakpoints, id(bmap.layer))
        if key not in shared:
            shared[key] = segmented_nodes(rule, tuple(sorted({*bmap.breakpoints, *cap})), bmap.layer)
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


@lru_cache(maxsize=32)
def _default_biaxial(n: int, order: int) -> BiaxialRule:
    return biaxial_rule(n, max(order // 2, 32), max(order // 4, 16))


# Kernel values per block of eval_batch: at most 2^16 doubles (512 KB),
# formed in two buffers made once per call and reused by every block.
# Measured on the interior workload's cloud calls (16 calls, 10,304
# points, seed 21; 2-core x86-64, Python 3.11.7, numpy 2.4.6, one BLAS
# thread), three sweeps: 5,440-6,280 points/s for blocks of 2^13 to 2^15
# values, 6,070-6,350 at 2^16, 5,690-6,070 at 2^17, where the 65,536-pair
# jump rules take two points a block, and 4,830-5,340 at 2^18, which
# outgrows the cache; no size faulted after the first sweep.  On expanded
# rules 2^16 ran at 4,690-4,780 (13,700 minor faults a sweep) and 2^17 at
# 5,260-5,340.  Fresh 16 MB blocks once ran at 3,990 points/s against
# 6,300 with reuse: glibc maps and unmaps blocks that large on every
# block, so the reuse keeps the rate clear of its mmap thresholds.
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


def eval_batch(bmap: BoundaryMap, points: np.ndarray, rule: BiaxialRule | None = None) -> np.ndarray:
    """Poisson extension at many interior points, shape (B, m+1).

    Values depend on each point only through (|x|, <x, N>), so the rule's
    factors and the datum on its latitude nodes (512 for a jump rule of
    65,536 node pairs) are shared across the batch.  Every point is
    checked (finite, |x| < 1) and decomposed in one pass; the kernel is
    then formed in blocks of at most ``_BLOCK_VALUES`` values, laid out
    (points, inner, latitude) in two buffers made once per call and
    reused by every block.  A block makes six passes over its buffer at
    n = 3 and five at n = 4: two broadcasts form c - d s, then the power
    -n/2 by ``_inverse_power`` and one product with the inner weights.
    2,048 points at n = 3, r = 0.5 take 0.26 s on a smooth datum and
    0.46 s on a jump, against 0.28 s and 0.60 s on the expanded rule
    (n = 4: 0.20 s and 0.33 s against 0.23 s and 0.51 s).  n = 2, whose
    inner rule has two nodes, pays for forming c and d beside a buffer
    only twice their size: 8.1-8.6 ms for 2,000 points against 7.6-7.7.

    The rule has no grading toward the point, so accuracy fails near the
    sphere without any flag: against a 1024 x 512 biaxial rule the values
    are off by about 4e-12 at |x| = 0.9, 4e-6 at 0.95 and 1e-3 at 0.97
    (n = 3; n = 4 about five times more), until ROADMAP item 2 lands.
    ``rule`` must be of the map's dimension.
    """
    n = bmap.spec.n
    if rule is None:
        rule = _default_biaxial(n, bmap.rule.order)
    elif rule.n != n:
        raise ValueError(f"a biaxial rule of dimension {rule.n} cannot evaluate a map of dimension {n}")
    rho, cos_t, sin_t = _polar(np.asarray(points, dtype=float), n)
    t, w = segmented_outer(rule, bmap.breakpoints, bmap.layer)
    s, v = rule.inner.nodes, rule.inner.weights
    wu = (w * bmap.components(t)).T  # (latitude, m+1): the weighted datum
    root = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    one_t, lead = np.stack((np.ones(t.size), t)), np.column_stack((np.ones(rho.size), -cos_t))
    out = np.empty((rho.size, bmap.spec.m + 1))
    rows = max(1, min(rho.size, _BLOCK_VALUES // (s.size * t.size)))
    kern_buf, work_buf = np.empty((2, rows, s.size, t.size))
    c_buf, d_buf = np.empty((2, rows, t.size))
    # c = (1-rho)^2 + 2 rho (1 - cos t), arranged to stay stable near the pole
    gap2, twice, mass = (1.0 - rho) ** 2, 2.0 * rho, 1.0 - rho * rho
    for start in range(0, rho.size, rows):
        block = slice(start, min(start + rows, rho.size))
        size = block.stop - start
        kern, work, c, d = kern_buf[:size], work_buf[:size], c_buf[:size], d_buf[:size]
        np.matmul(lead[block], one_t, out=c)  # 1 - cos t
        np.multiply(twice[block, None], c, out=c)
        np.add(gap2[block, None], c, out=c)
        np.multiply.outer(twice[block] * sin_t[block], root, out=d)
        np.multiply(d[:, None, :], s[:, None], out=kern)
        np.subtract(c[:, None, :], kern, out=kern)
        _inverse_power(kern, n, work)
        np.matmul(v, kern, out=c)  # sum over the inner nodes
        out[block] = (c @ wu) * mass[block, None]
    return out


def eval_general(bmap: BoundaryMap, x) -> MapEvaluation:
    """Poisson extension at an arbitrary interior point.

    The value is ``eval_batch``'s, with its silent error near the sphere
    (about 4e-12 at |x| = 0.9, 4e-6 at 0.95, 1e-3 at 0.97).  The estimate
    compares it with a half-order rule and does not track that error: it
    reads 1e-6 to 3e-6 at 0.9 and 1e-3 to 3e-3 at 0.95 (n = 3).  On the
    rules' factors a point takes 0.3 ms (n = 3, smooth), against 1.7-2.0
    ms when each call expanded its rule to node pairs.
    """
    n = bmap.spec.n
    rule = _default_biaxial(n, bmap.rule.order)
    x = np.asarray(x, dtype=float)
    value = eval_batch(bmap, x[None, :], rule)[0]
    order = rule.outer_order
    coarse_rule = biaxial_rule(n, max(order // 2, 16), max(order // 4, 8))
    coarse = eval_batch(bmap, x[None, :], coarse_rule)[0]
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
