"""Independent checks: a discretized extremal program, admissible test
mixtures, a mean-value probe, and a finite-difference Jacobian check.

The discretized program replaces the boundary datum by one free
m-vector per quadrature node and maximizes the kernel-weighted first
component subject to the membership constraints

    |u_k| <= 1,   sum_k w_k u_k = a,   sum_k w_k sqrt(1 - |u_k|^2) >= b.

This is a concave program whose continuum limit has the sharp axis
bound as value, and it never touches the multiplier machinery.  It is
solved as a primal-dual certificate:

* the dual: the program's Lagrange dual separates over nodes into a
  smooth convex function of (m+1) multipliers, minimized by L-BFGS; its
  value is an upper bound of the discrete maximum by weak duality;
* the primal point: each node takes the dual's closed-form maximizer.
  On the b = 0 face that is a unit vector, and with no tail it is the
  sign datum, which meets the mean only to node spacing; the node
  nearest the crossing kernel_k = nu_1 is free by complementary
  slackness and absorbs the mean residual;
* certification: the point is projected onto the feasible set (Dykstra
  for the affine-and-ball part, then a convex mix toward the strictly
  feasible constant datum u = a), so its objective is a true lower
  bound up to the constraint slack of 1e-9;
* the gap: the reported value is that lower bound, and the call raises
  ``OracleError`` unless the dual value exceeds it by at most 5e-4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OracleError
from .mapping import BoundaryMap, eval_batch, eval_on_axis
from .solver import ProblemSpec, jacobian_RI, kernel_profile, moments_RI
from .sphere import poisson_kernel, sample_sphere, segmented_nodes, zonal_rule

__all__ = [
    "DiscretizedProgram",
    "build_program",
    "discretized_max",
    "discretized_max_sphere",
    "AdmissibleMixture",
    "admissible_mixture",
    "mean_value_residual",
    "jacobian_fd_check",
]


@dataclass(frozen=True)
class DiscretizedProgram:
    """Finite program data: nodes, sigma-weights, kernel values, targets."""

    spec: ProblemSpec
    weights: np.ndarray
    kernel: np.ndarray
    description: str

    @property
    def node_count(self) -> int:
        return self.weights.size

    def objective(self, u: np.ndarray) -> float:
        return float(self.weights @ (self.kernel * u[:, 0]))

    def constraint_violation(self, u: np.ndarray) -> float:
        """Max violation over node balls, mean equality, and the b inequality."""
        spec = self.spec
        norms = np.linalg.norm(u, axis=1)
        ball = max(float(norms.max()) - 1.0, 0.0)
        mean = float(np.abs(self.weights @ u - spec.a).max())
        root = np.sqrt(np.clip(1.0 - norms * norms, 0.0, None))
        slack = spec.b - float(self.weights @ root)
        return max(ball, mean, max(slack, 0.0))


@lru_cache(maxsize=64)
def _zonal_kernel(n: int, r: float, node_count: int) -> np.ndarray:
    # shared and read-only: repeated programs on one geometry hold one array
    rule = zonal_rule(n, node_count)
    kernel = (1.0 - r**2) * kernel_profile(r, n, rule.nodes)
    kernel.flags.writeable = False
    return kernel


def build_program(spec: ProblemSpec, node_count: int = 2048) -> DiscretizedProgram:
    """Zonal discretization: latitude Gauss nodes and the axis kernel."""
    return DiscretizedProgram(
        spec=spec,
        weights=zonal_rule(spec.n, node_count).weights,
        kernel=_zonal_kernel(spec.n, spec.r, node_count),
        description=f"zonal Gauss rule, {node_count} latitude nodes",
    )


def _project_balls(u: np.ndarray) -> np.ndarray:
    # Column by column: the same sums, in the same order, as
    # np.linalg.norm(u, axis=1), whose reduction over the short axis is
    # several times slower.
    sq = u[:, 0] * u[:, 0]
    for j in range(1, u.shape[1]):
        sq += u[:, j] * u[:, j]
    scale = np.maximum(np.sqrt(sq), 1.0)
    out = np.empty_like(u)
    for j in range(u.shape[1]):
        np.divide(u[:, j], scale, out=out[:, j])
    return out


def _dual_multipliers(program: DiscretizedProgram):
    """Minimize the separable dual of the discrete program.

    For fixed multipliers (nu, eta) the inner maximization decouples
    over nodes and has the closed form

        max_{|u| <= 1} d.u + eta sqrt(1 - |u|^2) = sqrt(|d|^2 + eta^2),
        d_k = kernel_k e_1 - nu,

    so the dual q(nu, eta) = nu.a - eta b + sum_k w_k sqrt(|d_k|^2 +
    eta^2) is smooth away from d_k = 0, convex, and only
    (m+1)-dimensional.  Returns (q(nu, eta), nu, eta, closed-form primal
    point d_k / sqrt(|d_k|^2 + eta^2)).
    """
    from scipy.optimize import minimize

    spec = program.spec
    w, kernel = program.weights, program.kernel
    m = spec.m
    positive = spec.b > 0.0

    def split(theta):
        return theta[:m], (float(theta[m]) if positive else 0.0)

    def dual(theta):
        nu, eta = split(theta)
        d = -np.tile(nu, (w.size, 1))
        d[:, 0] += kernel
        mag = np.maximum(np.sqrt(np.einsum("ij,ij->i", d, d) + eta * eta), 1e-150)
        value = float(nu @ spec.a) - eta * spec.b + float(w @ mag)
        u = d / mag[:, None]
        grad_nu = spec.a - w @ u
        if positive:
            return value, np.concatenate((grad_nu, [float(w @ (eta / mag)) - spec.b])), u
        return value, grad_nu, u

    theta0 = np.zeros(m + (1 if positive else 0))
    if positive:
        theta0[m] = 0.5
    bounds = [(None, None)] * m + ([(1e-14, None)] if positive else [])
    res = minimize(
        lambda theta: dual(theta)[:2],
        theta0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options=dict(maxiter=1000, ftol=1e-18, gtol=1e-13),
    )
    nu, eta = split(res.x)
    value, _, u = dual(res.x)
    return value, np.asarray(nu, dtype=float), eta, u


def _repair_crossing(u: np.ndarray, program: DiscretizedProgram, nu: np.ndarray) -> np.ndarray:
    """Let the node nearest the crossing kernel_k = nu_1 absorb the mean
    residual, when the result stays in its ball.

    On the b = 0 face the maximizer of d_k.u over the ball is any point
    of the ball where d_k = 0, so by complementary slackness this node
    is free; the sign datum of the other nodes resolves the mean only to
    node spacing.
    """
    w = program.weights
    j = int(np.argmin(np.abs(program.kernel - nu[0])))
    moved = u[j] + (program.spec.a - w @ u) / w[j]
    if float(moved @ moved) > 1.0:
        return u
    out = u.copy()
    out[j] = moved
    return out


def _certify(u: np.ndarray, program: DiscretizedProgram) -> tuple[np.ndarray, float]:
    """Project the point onto the feasible set and report the slack.

    Dykstra's alternating scheme handles the mean constraint and the
    node balls; any remaining deficit of the concave constraint is fixed
    by mixing toward the strictly feasible constant datum, which keeps
    the other constraints exact.
    """
    spec = program.spec
    weights = program.weights
    sw2 = float(weights @ weights)
    x = u.copy()
    p = np.zeros_like(u)
    q = np.zeros_like(u)
    for _ in range(2000):
        y = x + p
        h = weights @ y - spec.a
        y_aff = y - np.outer(weights, h) / sw2
        p = y - y_aff
        z = y_aff + q
        x_new = _project_balls(z)
        q = z - x_new
        x = x_new
        if float(np.abs(weights @ x - spec.a).max()) < 1e-13:
            break
    if spec.b > 0.0:
        norms = np.linalg.norm(x, axis=1)
        root = np.sqrt(np.clip(1.0 - norms * norms, 0.0, None))
        s_val = float(weights @ root)
        cap = np.sqrt(1.0 - float(spec.a @ spec.a))
        if s_val < spec.b:
            theta = (spec.b - s_val) / (cap - s_val)
            theta = min(1.0, theta * (1.0 + 1e-12) + 1e-16)
            x = (1.0 - theta) * x + theta * spec.a[None, :]
    violation = program.constraint_violation(x)
    return x, violation


_GAP_TOL = 5e-4  # bound on the dual value minus the certified value


def _maximize(program: DiscretizedProgram) -> float:
    """Certified objective of the dual's primal point: a lower bound of
    the discrete maximum, within ``_GAP_TOL`` of the dual value, which is
    an upper bound by weak duality."""
    upper, nu, eta, u = _dual_multipliers(program)
    if program.spec.b == 0.0:
        u = _repair_crossing(u, program, nu)
    u, violation = _certify(u, program)
    if not violation < 1e-9:
        raise OracleError(
            f"certified point violates the constraints by {violation:.3e} (slack 1e-09)"
        )
    value = program.objective(u)
    gap = upper - value
    if gap > _GAP_TOL:
        raise OracleError(
            f"certificate gap {gap:.3e} between the dual and the certified value exceeds tol {_GAP_TOL:.1e}",
            gap=gap,
        )
    return value


def discretized_max(spec: ProblemSpec, node_count: int = 2048) -> float:
    """Certified value of the node-discretized extremal program.

    The feasibility of the point behind the value is certified to 1e-9,
    and the dual value exceeds it by at most 5e-4; otherwise
    ``OracleError`` is raised.
    """
    if node_count < 8:
        raise ValueError(f"need at least 8 nodes, got {node_count}")
    return _maximize(build_program(spec, node_count))


def discretized_max_sphere(spec: ProblemSpec, node_count: int = 200) -> float:
    """Coarse non-zonal variant on antithetic uniform sphere nodes.

    Exists to cross-check the zonal discretization with an unrelated
    node geometry, and runs the same certificate with
    ``discretized_max``'s gap bound.  The nodes are the fixed
    sample ``sample_sphere(n, node_count // 2, 0)`` and its antipodes.
    The value is the optimum of the node program, but the nodes are a
    Monte Carlo sample of the sphere, so its distance to the axis bound
    is sampling error: at the default 200 nodes it can reach tens of
    percent (0.6500 against an axis bound of 0.9395 for n = 4, m = 1,
    r = 0.88, a = -0.24, b = 0).
    """
    if node_count < 8 or node_count % 2:
        raise ValueError(f"need an even node count >= 8, got {node_count}")
    half = sample_sphere(spec.n, node_count // 2, 0)
    nodes = np.vstack((half, -half))  # antithetic pairs
    pole = np.zeros(spec.n)
    pole[-1] = spec.r
    program = DiscretizedProgram(
        spec=spec,
        weights=np.full(node_count, 1.0 / node_count),
        kernel=poisson_kernel(pole, nodes, spec.n),
        description=f"antithetic uniform sample, {node_count} sphere nodes",
    )
    return _maximize(program)


@dataclass(frozen=True)
class AdmissibleMixture:
    """Convex combination of admissible boundary data sharing the mean a.

    Linearity keeps the mean constraint exact and concavity of
    z -> sqrt(1 - |z|^2) preserves the b inequality, so the mixture is a
    legitimate competitor for every bound produced by this package; its
    harmonic extension is the weight-combination of the component
    extensions.
    """

    spec: ProblemSpec
    components: tuple[BoundaryMap, ...]
    mix: np.ndarray

    def axis_value(self, rho: float) -> float:
        return float(
            sum(w * eval_on_axis(c, rho).value[0] for w, c in zip(self.mix, self.components))
        )

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        out = None
        for w, comp in zip(self.mix, self.components):
            vals = w * eval_batch(comp, points)
            out = vals if out is None else out + vals
        return out

    def mean_residuals(self) -> tuple[float, float]:
        """(mean-of-u error, b-constraint slack deficit) of the mixture."""
        res_a = 0.0
        slack = 0.0
        for w, comp in zip(self.mix, self.components):
            error, mass = _mean_error_and_mass(comp, self.spec)
            res_a += w * error
            slack += w * mass
        return float(res_a), float(max(self.spec.b - slack, 0.0))


def _mean_error_and_mass(comp: BoundaryMap, spec: ProblemSpec) -> tuple[float, float]:
    """max |int u - a| and the concave mass int sqrt(1 - |u|^2) of one datum."""
    t, wt = segmented_nodes(comp.rule, comp.breakpoints, comp.layer)
    u = comp.components(t)[: spec.m]
    root = np.sqrt(np.clip(1.0 - np.einsum("ij,ij->j", u, u), 0.0, None))
    return float(np.abs(u @ wt - spec.a).max()), float(wt @ root)


def admissible_mixture(spec: ProblemSpec, components) -> AdmissibleMixture:
    """Bundle (map, weight) pairs after validating admissibility.

    Every component must carry the mean a of ``spec`` and at least the
    b-level of concave mass; weights must be a convex combination.
    """
    pairs = list(components)
    maps = [comp for comp, _ in pairs]
    mix = np.array([float(w) for _, w in pairs])
    if mix.size == 0:
        raise ValueError("mixture needs at least one component")
    if np.any(mix < -1e-15) or abs(float(mix.sum()) - 1.0) > 1e-12:
        raise ValueError("mixture weights must be nonnegative and sum to one")
    for comp in maps:
        if comp.spec.n != spec.n or comp.spec.m != spec.m:
            raise ValueError("mixture components must share the problem dimensions")
        if not np.allclose(comp.spec.a, spec.a, atol=1e-12):
            raise ValueError("mixture components must share the mean constraint a")
        error, mass = _mean_error_and_mass(comp, spec)
        if error > 1e-6:
            raise ValueError("component datum does not meet its mean constraint")
        if mass < spec.b - 1e-9:
            raise ValueError("component datum falls short of the b constraint")
    return AdmissibleMixture(spec=spec, components=tuple(maps), mix=mix)


def mean_value_residual(evaluator, x, s: float, probe_count: int = 2048, seed: int = 0) -> float:
    """Deviation of a sphere average from the center value.

    ``evaluator`` maps an array of points, shape (B, n), to values of
    shape (B, d).  Probes come in probe_count / 2 antithetic pairs (an
    even count >= 2), which cancels the first-order directional term
    exactly; for a harmonic evaluator the residual is then quadratic-order
    Monte Carlo noise, while a perturbation by |y|^2 shifts the sphere
    average by s^2 exactly.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if not s > 0.0:
        raise ValueError(f"probe radius must be positive, got {s}")
    if probe_count < 2 or probe_count % 2:
        raise ValueError(f"need an even probe_count >= 2, got {probe_count}")
    if float(np.linalg.norm(x)) + s >= 1.0:
        raise ValueError("probe sphere must stay inside the unit ball")
    half = sample_sphere(n, probe_count // 2, seed)
    probes = np.concatenate((half, -half), axis=0)
    center = np.asarray(evaluator(x[None, :]))[0]
    values = np.asarray(evaluator(x[None, :] + s * probes))
    return float(np.linalg.norm(values.mean(axis=0) - center))


def jacobian_fd_check(spec: ProblemSpec, lam, mu: float) -> float:
    """Max mismatch of the analytic moment Jacobian against central
    differences of step 1e-6 in each of (lam, mu), entrywise relative to
    1 + |analytic|, on the order-512 zonal rule."""
    step = 1e-6
    rule = zonal_rule(spec.n, 512)
    lam = np.asarray(lam, dtype=float)

    def stacked(theta):
        moments, value_i = moments_RI(spec, theta[:-1], float(theta[-1]), rule)
        return np.concatenate((moments, [value_i]))

    theta0 = np.concatenate((lam, [mu]))
    analytic = jacobian_RI(spec, lam, mu, rule)
    fd = np.empty_like(analytic)
    for j in range(theta0.size):
        hi = theta0.copy()
        lo = theta0.copy()
        hi[j] += step
        lo[j] -= step
        fd[:, j] = (stacked(hi) - stacked(lo)) / (2.0 * step)
    return float((np.abs(fd - analytic) / (1.0 + np.abs(analytic))).max())
