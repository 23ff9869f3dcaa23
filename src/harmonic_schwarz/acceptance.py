"""Acceptance suite: the ten checks gating a release.

Each criterion pits a closed-form or solver result against an
independent route (classical constants, finite differences, dense
determinants of the moment Jacobian, the discretized convex program,
Monte Carlo means) with a pinned tolerance.  Everything is seeded, so a pass is reproducible
bit for bit.  The CLI ``verify`` subcommand and the test suite both run
through :func:`run_suite`.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .bounds import axis_bound, directional_bound, region_envelope
from .linalg import bordered_det
from .mapping import boundary_map, constant_map, eval_batch, eval_general
from .oracle import (
    admissible_mixture,
    discretized_max,
    jacobian_fd_check,
    mean_value_residual,
)
from .solver import (
    ProblemSpec,
    _row_integrals,
    jacobian_RI,
    kernel_profile,
    moments_RI,
    solve_batch,
)
from .sphere import zonal_rule

__all__ = ["CriterionResult", "CRITERIA", "run_suite"]


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance criterion.

    ``measured`` is the headline number compared against ``budget``
    (direction depends on the criterion; ``detail`` spells it out).
    A criterion returns those and ``passed``; :func:`run_suite` adds the
    ``name`` and the wall time ``elapsed`` in seconds, and fails a
    criterion that overruns its runtime budget in ``_RUNTIME_BUDGETS``.
    """

    name: str
    passed: bool
    measured: float
    budget: float
    detail: str
    elapsed: float


def _ball_point(rng, dim: int, radius: float) -> np.ndarray:
    x = rng.normal(size=dim)
    x /= max(np.linalg.norm(x), 1e-300)
    return radius * float(rng.uniform()) ** (1.0 / dim) * x


def _random_spec(rng, zero_b_share: float = 0.2, r_lo: float = 0.1, r_hi: float = 0.9) -> ProblemSpec:
    """Seeded draw over n in {2,3,4}, m in {1,2,3}, |(a,b)| <= 0.85.

    A fifth of the draws land on the b = 0 branch; those keep either a
    pure first-coordinate mean (jump datum) or tail components bounded
    away from zero, since means inside the ill-conditioned sliver are
    reported via solver warnings rather than silently solved.
    """
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 4))
    r = float(rng.uniform(r_lo, r_hi))
    if rng.uniform() < zero_b_share:
        if m == 1 or rng.uniform() < 0.5:
            a = np.zeros(m)
            a[0] = float(rng.uniform(0.1, 0.8)) * float(rng.choice([-1.0, 1.0]))
        else:
            a = rng.uniform(0.08, 0.45, size=m) * rng.choice([-1.0, 1.0], size=m)
        return ProblemSpec(n=n, m=m, r=r, a=a, b=0.0)
    center = _ball_point(rng, m + 1, 0.85)
    while np.linalg.norm(center) < 0.05:
        center = _ball_point(rng, m + 1, 0.85)
    return ProblemSpec(n=n, m=m, r=r, a=center[:m], b=abs(float(center[m])))


def _field_point(rng, m_lo: int, m_hi: int):
    """Seeded field point (spec, lam, mu), not a solution of spec: n in
    {2,3,4}, m in m_lo..m_hi - 1, r in [0.15, 0.85], a = 0, b = 0.5,
    lam_1 in [-0.5, 1.2] g(1), lam_2..lam_m in [-0.8, 0.8], mu in [0.3, 3]."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(m_lo, m_hi))
    r = float(rng.uniform(0.15, 0.85))
    spec = ProblemSpec(n=n, m=m, r=r, a=np.zeros(m), b=0.5)
    lam = np.concatenate(
        ([float(rng.uniform(-0.5, 1.2)) * kernel_profile(r, n, 1.0)], rng.uniform(-0.8, 0.8, size=m - 1))
    )
    return spec, lam, float(rng.uniform(0.3, 3.0))


def heinz() -> dict:
    """Centered planar bound against (4/pi) arctan r at nine radii."""
    worst = 0.0
    for k in range(1, 10):
        r = k / 10.0
        spec = ProblemSpec(n=2, m=1, r=r, a=np.zeros(1), b=0.0)
        err = abs(axis_bound(spec).value - (4.0 / np.pi) * np.arctan(r))
        worst = max(worst, err)
    return dict(
        passed=worst < 1e-8,
        measured=worst,
        budget=1e-8,
        detail=f"max deviation from (4/pi) arctan r over r = 0.1..0.9: {worst:.3e}",
    )


def moments() -> dict:
    """Moment residuals at the solved multipliers for 50 seeded draws.

    The moments of both branches come from the solver's own integrator,
    ``moments_RI`` at mu = 0 on the b = 0 branch, on the solution's rule,
    breakpoints and layer; the oracle, ``jacobian_fd_check`` and
    ``constraint_residuals`` (through ``datum``) are the independent checks.
    """
    rng = np.random.default_rng(314159)
    positive, zero = [], []
    for _ in range(50):
        spec = _random_spec(rng)
        rule = zonal_rule(spec.n)
        sol = solve_batch([spec], rule)[0]
        moved, mass = moments_RI(spec, sol.lam, sol.mu or 0.0, rule, sol.breakpoints, sol.layer)
        (positive if spec.b > 0.0 else zero).append(max(float(np.abs(moved - spec.a).max()), abs(mass - spec.b)))
    worst_pos, worst_zero = max(positive, default=0.0), max(zero, default=0.0)
    return dict(
        passed=worst_pos < 1e-10 and worst_zero < 1e-8,
        measured=max(worst_pos, worst_zero),
        budget=1e-8,
        detail=(
            f"worst residual {worst_pos:.3e} over {len(positive)} positive-b draws"
            f" (budget 1e-10), {worst_zero:.3e} over {len(zero)} zero-b draws"
            f" (budget 1e-08)"
        ),
    )


def oracle() -> dict:
    """Closed-form bound vs the discretized convex program, 10 draws."""
    rng = np.random.default_rng(271828)
    worst = 0.0
    for _ in range(10):
        spec = _random_spec(rng)
        gap = abs(discretized_max(spec, node_count=2048) - axis_bound(spec).value)
        worst = max(worst, gap)
    return dict(
        passed=worst <= 5e-3,
        measured=worst,
        budget=5e-3,
        detail=f"max |discretized_max - axis_bound| over 10 seeded draws: {worst:.3e}",
    )


def jacobian() -> dict:
    """Analytic moment Jacobian vs central differences at 20 points.

    Also checks the antisymmetry tying the mu-column of the mean rows to
    the multiplier row of the mass moment; the two entries integrate the
    same profile with opposite sign, so their sum must vanish to
    rounding.
    """
    rng = np.random.default_rng(161803)
    worst_fd = 0.0
    worst_id = 0.0
    for _ in range(20):
        spec, lam, mu = _field_point(rng, 1, 4)
        worst_fd = max(worst_fd, jacobian_fd_check(spec, lam, mu))
        jac = jacobian_RI(spec, lam, mu, zonal_rule(spec.n))
        worst_id = max(worst_id, float(np.abs(jac[:-1, -1] + jac[-1, :-1]).max()))
    return dict(
        passed=worst_fd < 1e-5 and worst_id < 1e-12,
        measured=worst_fd,
        budget=1e-5,
        detail=(
            f"max relative FD mismatch {worst_fd:.3e}; "
            f"max |dR_j/dmu + dI/dlam_j| = {worst_id:.3e} (budget 1e-12)"
        ),
    )


def determinants() -> dict:
    """The bordered-determinant lemma and the Cramer ratio on the moment
    Jacobian J of ``jacobian_RI``, 200 seeded draws with m = 2..8.

    The mean block -J[:m, :m] is b I + A with b = P0 + P2, A[0,0] = -P2
    and A[i,j] = -c_i c_j elsewhere, c = (-P1 / sqrt(P0), sqrt(P0) l_2..
    sqrt(P0) l_m), from the field integrals J is built from.  Its closed
    form cancels to far below its terms, so the error is measured against
    the sum of their magnitudes.  The Schur complement J[m,m] + J[m,:m] x,
    with J[:m,:m] x = -J[:m,m], must match det J / det J[:m,:m].
    """
    rng = np.random.default_rng(112358)
    worst_border = 0.0
    worst_cramer = 0.0
    for _ in range(200):
        spec, lam, mu = _field_point(rng, 2, 9)
        m, rule = spec.m, zonal_rule(spec.n)
        jac = jacobian_RI(spec, lam, mu, rule)
        _, s, (*_, p0, p1, p2) = _row_integrals(spec, lam, mu, rule)
        b, a11 = p0 + p2, -p2
        c = np.concatenate(([-p1 / np.sqrt(p0)], np.sqrt(p0) * lam[1:] / s))
        tail2 = float(c[1:] @ c[1:])
        scale = b**m + b ** (m - 1) * abs(a11 - tail2) + b ** (m - 2) * abs(a11 + c[0] ** 2) * tail2
        dense = float(np.linalg.det(-jac[:m, :m]))
        worst_border = max(worst_border, float(abs(bordered_det(b, a11, c) - dense) / scale))
        schur = jac[m, m] + jac[m, :m] @ np.linalg.solve(jac[:m, :m], -jac[:m, m])
        ratio = np.linalg.det(jac) / np.linalg.det(jac[:m, :m])
        worst_cramer = max(worst_cramer, float(abs(schur - ratio) / max(abs(ratio), 1.0)))
    worst = max(worst_border, worst_cramer)
    return dict(
        passed=worst < 1e-9,
        measured=worst,
        budget=1e-9,
        detail=(
            f"mean-block determinant worst error {worst_border:.3e} of its term scale; "
            f"Schur complement vs det ratio worst error {worst_cramer:.3e}; 200 Jacobian draws"
        ),
    )


def signs() -> dict:
    """Principal-minor sign pattern of the moment Jacobian, 20 draws.

    Every leading principal-minor ratio of the mean-equation block must
    be negative and the ratio of the full determinant to the largest
    block minor positive; together these give the nonvanishing that the
    multiplier solve leans on.
    """
    rng = np.random.default_rng(577215)
    worst_minor = -np.inf  # most positive minor ratio; must stay < 0
    worst_border = np.inf  # least positive bordered ratio; must stay > 0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 4))
        r = float(rng.uniform(0.15, 0.85))
        spec = ProblemSpec(n=n, m=m, r=r, a=np.zeros(m), b=0.5)
        lam = np.concatenate(
            (
                [float(rng.uniform(-0.5, 1.2)) * kernel_profile(r, n, 1.0)],
                rng.uniform(0.1, 0.8, size=m - 1) * rng.choice([-1.0, 1.0], size=m - 1),
            )
        )
        mu = float(rng.uniform(0.3, 2.5))
        jac = jacobian_RI(spec, lam, mu, zonal_rule(n))
        minors = [float(np.linalg.det(jac[:k, :k])) for k in range(1, m + 1)]
        prev = 1.0
        for minor in minors:
            worst_minor = max(worst_minor, minor / prev)
            prev = minor
        worst_border = min(worst_border, float(np.linalg.det(jac)) / minors[-1])
    return dict(
        passed=worst_minor < 0.0 and worst_border > 0.0,
        measured=worst_minor,
        budget=0.0,
        detail=(
            f"largest minor ratio {worst_minor:.3e} (must be < 0); "
            f"smallest bordered ratio {worst_border:.3e} (must be > 0)"
        ),
    )


def sharpness() -> dict:
    """Witness attainment at the pole and strict interior inequality.

    The directional bound is recomputed at the witness map through the
    general-point evaluator (a different quadrature than the one that
    produced the bound), then compared at 100 strictly interior points.
    """
    rng = np.random.default_rng(141421)
    worst_attain = 0.0
    min_margin = np.inf
    for _ in range(10):
        spec = _random_spec(rng, r_lo=0.2, r_hi=0.85)
        e = rng.normal(size=spec.m + 1)
        e /= np.linalg.norm(e)
        res = directional_bound(spec, e)
        witness = res.witness
        pole = np.zeros(spec.n)
        pole[-1] = spec.r
        attained = float(eval_general(witness, pole).value[0])
        worst_attain = max(worst_attain, abs(attained - res.value))
        pts = np.stack([_ball_point(rng, spec.n, 0.999 * spec.r) for _ in range(100)])
        interior = eval_batch(witness, pts)[:, 0]
        min_margin = min(min_margin, res.value - float(interior.max()))
    return dict(
        passed=worst_attain < 1e-9 and min_margin > 0.0,
        measured=worst_attain,
        budget=1e-9,
        detail=(
            f"worst pole attainment error {worst_attain:.3e}; "
            f"smallest interior margin {min_margin:.3e} (must be > 0)"
        ),
    )


def envelope() -> dict:
    """Image points of 20 admissible mixtures against the envelope."""
    rng = np.random.default_rng(662607)
    min_slack = np.inf
    for i in range(5):
        spec = _random_spec(rng, zero_b_share=0.2 if i else 0.0, r_lo=0.25, r_hi=0.8)
        env = region_envelope(spec, count=24, scheme="random", seed=i)
        pool = [
            boundary_map(spec),
            boundary_map(ProblemSpec(spec.n, spec.m, 0.6 * spec.r, spec.a, spec.b)),
            boundary_map(ProblemSpec(spec.n, spec.m, min(0.95, 1.4 * spec.r), spec.a, spec.b)),
            constant_map(spec),
        ]
        for _ in range(4):
            weights = rng.dirichlet(np.ones(len(pool)))
            mixture = admissible_mixture(spec, list(zip(pool, weights)))
            pts = np.stack(
                [_ball_point(rng, spec.n, spec.r) for _ in range(30)]
                + [spec.r * row / np.linalg.norm(row) for row in rng.normal(size=(10, spec.n))]
            )
            values = mixture.evaluate_batch(pts)
            min_slack = min(min_slack, float(env.support_gaps(values).min()))
    return dict(
        passed=min_slack >= -1e-6,
        measured=min_slack,
        budget=-1e-6,
        detail=f"smallest half-space slack over 20 mixtures x 40 points: {min_slack:.3e}",
    )


def limits() -> dict:
    """Growth in r, the shrink limit, and mu strictly increasing in b."""
    spec_a = np.array([0.3, -0.1])
    rng = np.random.default_rng(602214)
    min_growth = np.inf
    for _ in range(6):
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        values = [
            directional_bound(ProblemSpec(3, 2, r, spec_a, 0.4), e).value
            for r in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        min_growth = min(min_growth, float(np.diff(values).min()))

    tiny = ProblemSpec(n=2, m=2, r=1e-3, a=np.array([0.5, 0.3]), b=0.5)
    env = region_envelope(tiny, count=16, scheme="random", seed=4)
    center = np.concatenate((tiny.a, [tiny.b]))
    shrink = float((env.values - env.directions @ center).max())

    # geometric toward the ceiling sqrt(1 - |a|^2), where mu grows without bound
    cap = float(np.sqrt(1.0 - spec_a @ spec_a))
    sweep = [ProblemSpec(3, 2, 0.5, spec_a, b) for b in cap * (1.0 - np.geomspace(0.9, 1e-4, 9))]
    min_step = float(np.diff([sol.mu for sol in solve_batch(sweep)]).min())
    return dict(
        passed=min_growth >= -1e-10 and shrink < 1e-3 and min_step > 0.0,
        measured=shrink,
        budget=1e-3,
        detail=(
            f"smallest growth step of h(e) in r: {min_growth:.3e}; "
            f"shrink gap at r = 1e-3: {shrink:.3e}; "
            f"smallest mu increment along the b sweep: {min_step:.3e}"
        ),
    )


def harmonicity() -> dict:
    """Mean-value residuals of the extremal extension at n = 3.

    A deliberately non-harmonic perturbation (|x|^2 added to the first
    component, sphere-average defect exactly s^2) must trip the detector
    at 0.45 s^2 while the honest map stays under the Monte Carlo budget.
    """
    rng = np.random.default_rng(299792)
    spec = ProblemSpec(n=3, m=2, r=0.6, a=np.array([0.3, -0.1]), b=0.4)
    witness = boundary_map(spec)
    evaluator = lambda pts: eval_batch(witness, pts)
    s = 0.05
    worst = 0.0
    for _ in range(10):
        x = _ball_point(rng, 3, 0.9 - s)
        worst = max(worst, mean_value_residual(evaluator, x, s, probe_count=2048, seed=11))

    def perturbed(pts):
        out = eval_batch(witness, pts).copy()
        out[:, 0] += np.einsum("ij,ij->i", pts, pts)
        return out

    tripped = mean_value_residual(
        perturbed, np.array([0.2, -0.1, 0.3]), s, probe_count=2048, seed=11
    )
    return dict(
        passed=worst < 5e-3 and tripped > 0.45 * s * s,
        measured=worst,
        budget=5e-3,
        detail=(
            f"worst residual over 10 interior points: {worst:.3e}; "
            f"calibration map residual {tripped:.3e} vs detection floor {0.45 * s * s:.3e}"
        ),
    )


_REGISTRY = {
    "heinz": heinz,
    "moments": moments,
    "oracle": oracle,
    "jacobian": jacobian,
    "determinants": determinants,
    "signs": signs,
    "sharpness": sharpness,
    "envelope": envelope,
    "limits": limits,
    "harmonicity": harmonicity,
}
CRITERIA = tuple(_REGISTRY)  # canonical order


# Wall-time budgets in seconds; a criterion not listed has none.
_RUNTIME_BUDGETS = {"heinz": 1.0, "moments": 30.0, "oracle": 120.0}


def run_suite(names=None) -> list[CriterionResult]:
    """Run the named criteria (all of them by default), in canonical order.

    Every criterion is fully pinned.  Each one is timed here, and one
    that overruns its entry in ``_RUNTIME_BUDGETS`` fails whatever it
    measured.  Unknown names raise ValueError before any work runs.
    """
    selected = list(CRITERIA) if names is None else list(names)
    unknown = [name for name in selected if name not in _REGISTRY]
    if unknown:
        raise ValueError(f"unknown criteria: {', '.join(sorted(unknown))}")
    results = []
    for name in CRITERIA:
        if name not in selected:
            continue
        start = perf_counter()
        fields = _REGISTRY[name]()
        elapsed = perf_counter() - start
        fields["passed"] = fields["passed"] and elapsed < _RUNTIME_BUDGETS.get(name, np.inf)
        results.append(CriterionResult(name=name, elapsed=elapsed, **fields))
    return results
