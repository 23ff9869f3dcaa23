"""Sharp growth bounds and the supporting-halfspace image envelope.

For a harmonic F: B^n -> B^{m+1} with F(0) = (a, b), the first
coordinate of F on the closed ball of radius r is maximized at r * N by
the extremal map attached to (a, |b|); the maximum is the Poisson
integral of the extremal datum evaluated on the axis.  A bound in an
arbitrary unit direction e of the target follows by rotating the target
so that e becomes the first coordinate axis: with Q orthogonal,
e Q = e_0, the composition F Q is harmonic with center value (a, b) Q,
so

    h(e) = sup <F(x), e> over |x| <= r
         = axis bound of the problem with center value (a, b) Q.

Intersecting the halfspaces <y, e> <= h(e) over a direction family
yields a convex envelope containing the image of the closed r-ball for
every competitor F, and each face is touched by the rotated extremal
witness, so no halfspace can be tightened.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import rotation_to_pole
from .mapping import (
    BoundaryMap,
    axis_values,
    boundary_map,
    boundary_maps,
    constraint_residuals,
    eval_on_axis,
)
from .solver import ProblemSpec, _integer, kernel_profile
from .sphere import DEFAULT_ORDER, QuadratureRule, zonal_integrate, zonal_rule

__all__ = [
    "BoundResult",
    "RegionEnvelope",
    "axis_bound",
    "directional_bound",
    "classical_bound",
    "region_envelope",
    "direction_family",
    "envelope_to_json",
]


@dataclass(frozen=True)
class BoundResult:
    """A directional bound with its extremal witness.

    ``witness`` is the boundary map of the rotated problem whose
    first-coordinate axis functional attains ``value``, ``residuals`` its
    membership residuals (how well it meets the center constraints) and
    ``quadrature_error_estimate`` the one ``eval_on_axis`` gave ``value``.
    """

    spec: ProblemSpec
    direction: np.ndarray
    value: float
    witness: BoundaryMap
    residuals: tuple[float, float]
    quadrature_error_estimate: float


@dataclass(frozen=True)
class RegionEnvelope:
    """Supporting halfspaces <y, e_i> <= h_i of the image envelope."""

    spec: ProblemSpec
    directions: np.ndarray
    values: np.ndarray
    scheme: str
    seed: int
    quadrature_order: int

    @property
    def count(self) -> int:
        return self.values.size

    def support_gaps(self, points: np.ndarray) -> np.ndarray:
        """h_i - <y_j, e_i> for points y_j, shape (len(points), count).

        Nonnegative entries mean the point satisfies the halfspace.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.values[None, :] - pts @ self.directions.T


def axis_bound(spec: ProblemSpec, rule: QuadratureRule | None = None) -> BoundResult:
    """Sharp bound for the first target coordinate on the closed r-ball."""
    witness = boundary_map(spec, rule)
    edge = eval_on_axis(witness, spec.r)
    direction = np.zeros(spec.m + 1)
    direction[0] = 1.0
    return BoundResult(
        spec=spec,
        direction=direction,
        value=float(edge.value[0]),
        witness=witness,
        residuals=constraint_residuals(witness),
        quadrature_error_estimate=edge.quadrature_error_estimate,
    )


def directional_bound(spec: ProblemSpec, e, rule: QuadratureRule | None = None) -> BoundResult:
    """Sharp bound for <F, e> on the closed r-ball, |e| = 1 in R^{m+1}."""
    e = np.asarray(e, dtype=float)
    if e.shape != (spec.m + 1,):
        raise ValueError(f"direction must have shape ({spec.m + 1},), got {e.shape}")
    return replace(axis_bound(_rotated(spec, e), rule), spec=spec, direction=e)


def _rotated(spec: ProblemSpec, e: np.ndarray) -> ProblemSpec:
    """The problem whose first-coordinate bound is spec's bound along e."""
    center = np.concatenate((spec.a, [spec.b])) @ rotation_to_pole(e)
    return ProblemSpec(spec.n, spec.m, spec.r, center[: spec.m], float(center[spec.m]))


def classical_bound(n: int, r: float, rule: QuadratureRule | None = None) -> float:
    """Axis bound through a centered map (a = 0, b = 0).

    The extremal datum is the hemisphere sign datum, so the value is the
    Poisson integral of sign(t) at r * N.  For n = 2 this reproduces
    (4/pi) * arctan(r).  The kernel P has unit mass, so the value is
    1 - 2 int_{t<0} P dsigma, where P stays smooth as r -> 1; its mass
    near the pole would take rounded nodes and cap grading.
    """
    n = _integer("n", n)
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if not 0.0 < r < 1.0:
        raise ValueError(f"need 0 < r < 1, got r={r}")
    if rule is None:
        rule = zonal_rule(n, DEFAULT_ORDER)
    lower = lambda t: kernel_profile(r, n, t) * (t < 0.0)
    return 1.0 - 2.0 * (1.0 - r * r) * zonal_integrate(rule, lower, breakpoints=(0.0,))


def direction_family(dim: int, count: int, scheme: str = "auto", seed: int = 0):
    """Deterministic unit-direction family in R^dim.

    ``auto`` picks the uniform angular grid for dim = 2, the Fibonacci
    lattice for dim = 3, and a seeded uniform sample otherwise.  Returns
    (directions, resolved_scheme).
    """
    if dim < 2:
        raise ValueError(f"need target dimension >= 2, got {dim}")
    if count < 1:
        raise ValueError(f"need at least one direction, got {count}")
    resolved = scheme
    if scheme == "auto":
        resolved = {2: "grid", 3: "fibonacci"}.get(dim, "random")
    if resolved == "grid":
        if dim != 2:
            raise ValueError("the angular grid scheme needs a planar target")
        theta = 2.0 * np.pi * np.arange(count) / count
        out = np.column_stack((np.cos(theta), np.sin(theta)))
    elif resolved == "fibonacci":
        if dim != 3:
            raise ValueError("the Fibonacci scheme needs a three-dimensional target")
        i = np.arange(count)
        z = 1.0 - (2.0 * i + 1.0) / count
        phi = np.pi * (3.0 - np.sqrt(5.0)) * i
        s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        out = np.column_stack((s * np.cos(phi), s * np.sin(phi), z))
    elif resolved == "random":
        rng = np.random.default_rng(seed)
        out = rng.standard_normal((count, dim))
    else:
        raise ValueError(f"unknown direction scheme {scheme!r}")
    out = out / np.linalg.norm(out, axis=1)[:, None]
    return out, resolved


def region_envelope(
    spec: ProblemSpec,
    rule: QuadratureRule | None = None,
    directions=None,
    count: int = 64,
    scheme: str = "auto",
    seed: int = 0,
) -> RegionEnvelope:
    """Envelope of the image of the closed r-ball from sampled directions.

    Pass ``directions`` explicitly to control the family; otherwise
    ``count`` directions are generated by ``scheme``.  The center is
    rotated once per direction, and the reduced duals of all directions
    are minimized as one batch (``mapping.boundary_maps``); their axis
    values are then taken in one pass (``mapping.axis_values``).
    Each value is bit for bit ``directional_bound(spec, e).value``,
    whatever the rest of the family, so a fixed family yields a
    reproducible envelope byte for byte.  No witness, residuals or
    error estimate is kept; ``directional_bound`` gives them.  Raises
    ``SolverError`` when a direction misses its branch's tolerance.
    """
    if directions is not None:
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        if dirs.shape[1] != spec.m + 1:
            raise ValueError(f"directions must have shape (k, {spec.m + 1})")
        if dirs.shape[0] == 0:
            raise ValueError("need at least one direction")
        bad = ~(np.abs(np.linalg.norm(dirs, axis=1) - 1.0) <= 1e-12)  # a NaN fails this test too
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"directions must be finite unit vectors, got e={dirs[k]} at row {k}")
        resolved = "explicit"
    else:
        dirs, resolved = direction_family(spec.m + 1, count, scheme, seed)
    if rule is None:
        rule = zonal_rule(spec.n, DEFAULT_ORDER)
    values = axis_values(boundary_maps([_rotated(spec, e) for e in dirs], rule), spec.r)
    return RegionEnvelope(
        spec=spec,
        directions=dirs,
        values=values,
        scheme=resolved,
        seed=seed,
        quadrature_order=rule.order,
    )


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def envelope_to_json(env: RegionEnvelope) -> str:
    """Canonical JSON for an envelope: fixed field order, 17-digit floats.

    The document is self-describing: problem data first, then one
    ``{"e": [...], "h": ...}`` object per halfspace in direction order,
    then the sampling metadata needed to regenerate it.
    """
    spec = env.spec
    lines = [
        "{",
        f'  "n": {spec.n},',
        f'  "m": {spec.m},',
        f'  "r": {_fmt(spec.r)},',
        f'  "a": [{", ".join(_fmt(v) for v in spec.a)}],',
        f'  "b": {_fmt(spec.b)},',
        '  "halfspaces": [',
    ]
    rows = []
    for e, h in zip(env.directions, env.values):
        e_txt = ", ".join(_fmt(v) for v in e)
        rows.append(f'    {{"e": [{e_txt}], "h": {_fmt(h)}}}')
    lines.append(",\n".join(rows))
    lines.extend(
        [
            "  ],",
            f'  "scheme": "{env.scheme}",',
            f'  "seed": {env.seed},',
            f'  "quadrature_order": {env.quadrature_order}',
            "}",
        ]
    )
    return "\n".join(lines) + "\n"
