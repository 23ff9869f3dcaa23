"""Checks of the program's outputs against ``reference``.

Each check returns a list of messages, empty when the output passes.
The tolerances sit far above the accuracy of the reference (about 1e-13
on bounds) and of the program on the inputs the workloads make, and far
below the size of a wrong answer that ``selftest.py`` feeds them.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

BOUND_TOL = 1e-8  # |h - dual minimum| for every directional bound
PROPERTY_TOL = 1e-12  # slack of <c, e> <= h <= 1
DATUM_TOL = 1e-6  # sampled extremal datum and multipliers
EVAL_TOL = 1e-5  # on-axis Poisson extension against the 1-D reference
BALL_TOL = 1e-9  # |F(x)| <= 1
INTERIOR_BOUND_TOL = 1e-6  # F_1(x) <= h(|x|)
MV_SIGMAS = 6.0  # mean-value gap allowed, in standard errors of the probe mean
MV_FLOOR = 1e-7
MVR_BUDGET = 5e-3  # the harmonicity criterion's budget for mean_value_residual
ORACLE_TOL = 5e-3  # |discretized_max - dual minimum|, the oracle criterion's budget
DUALITY_SLACK = 1e-8  # the oracle certifies feasibility to 1e-9 only


def _center(spec: dict) -> np.ndarray:
    return np.concatenate((np.asarray(spec["a"], dtype=float), [float(spec["b"])]))


def bound_reference(spec: dict, e) -> float:
    c1, rho = ref.reduced_center(spec["a"], spec["b"], e)
    return ref.dual_bound(spec["n"], spec["r"], c1, rho)[0]


def check_bound(spec: dict, e, value: float) -> list[str]:
    """A sharp directional bound: the dual minimum, between <c, e> and 1."""
    e = np.asarray(e, dtype=float)
    errors = []
    if not math.isfinite(value):
        return [f"bound {value!r} is not finite"]
    if abs(float(np.linalg.norm(e)) - 1.0) > 1e-12:
        errors.append(f"direction {e.tolist()} is not a unit vector")
    expected = float(bound_reference(spec, e))
    if abs(value - expected) > BOUND_TOL:
        errors.append(f"bound {value!r} differs from the dual minimum {expected!r} by {value - expected:.3e}")
    floor = float(_center(spec) @ e)
    if value < floor - PROPERTY_TOL:
        errors.append(f"bound {value!r} lies below <F(0), e> = {floor!r}")
    if value > 1.0 + PROPERTY_TOL:
        errors.append(f"bound {value!r} exceeds 1")
    return errors


def check_envelope(spec: dict, directions, values) -> list[str]:
    errors = []
    for e, h in zip(np.asarray(directions, dtype=float), np.asarray(values, dtype=float)):
        errors.extend(check_bound(spec, e, float(h)))
    return errors


def check_classical(n: int, r: float, value: float) -> list[str]:
    """The centered bound: (4/pi) arctan r for n = 2, the dual minimum at c = 0."""
    errors = check_bound(dict(n=n, m=1, r=r, a=[0.0], b=0.0), [1.0, 0.0], value)
    if n == 2 and abs(value - 4.0 / math.pi * math.atan(r)) > BOUND_TOL:
        errors.append(f"classical bound {value!r} differs from (4/pi) arctan r")
    return errors


def check_extremal(spec: dict, doc: dict) -> list[str]:
    """Multipliers and sampled datum of the extremal map against the dual.

    The dual minimizer N gives the paper's multipliers (lambda, mu) =
    (N_1..m, -N_m+1) / (1 - r^2) and the datum (K e1 - N) / |K e1 - N|.
    """
    n, m, r = spec["n"], spec["m"], spec["r"]
    e1 = np.zeros(m + 1)
    e1[0] = 1.0
    c1, rho = ref.reduced_center(spec["a"], spec["b"], e1)
    _, nu1, s = ref.dual_bound(n, r, c1, rho)
    big_n = ref.full_multiplier(spec["a"], spec["b"], e1, nu1, s)
    errors = []
    lam = np.asarray(doc["lambda"], dtype=float)
    lam_ref = big_n[:m] / (1.0 - r * r)
    if lam.shape != lam_ref.shape or np.any(np.abs(lam - lam_ref) > DATUM_TOL * (1.0 + np.abs(lam_ref))):
        errors.append(f"lambda {lam.tolist()} differs from the dual's {lam_ref.tolist()}")
    if spec["b"] > 0.0:
        mu_ref = -big_n[m] / (1.0 - r * r)
        if doc["mu"] is None or abs(doc["mu"] - mu_ref) > DATUM_TOL * (1.0 + abs(mu_ref)):
            errors.append(f"mu {doc['mu']!r} differs from the dual's {mu_ref!r}")
    elif doc["mu"] is not None:
        errors.append(f"mu {doc['mu']!r} reported on the b = 0 branch")
    samples = np.asarray(doc["samples"], dtype=float)
    t = samples[:, 0]
    expected = ref.extremal_datum(n, r, big_n, t).T
    gap = np.abs(samples[:, 1:] - expected).max(axis=1)
    if s == 0.0:
        # the datum jumps where K = nu1; a sample within 1e-9 of it may fall either way
        kern = (1.0 - r * r) * (1.0 + r * r - 2.0 * r * t) ** (-0.5 * n)
        gap[np.abs(kern - nu1) <= 1e-9 * max(abs(nu1), 1.0)] = 0.0
    if gap.max() > DATUM_TOL:
        k = int(gap.argmax())
        errors.append(f"datum at t={float(t[k])!r} is off the dual's by {gap[k]:.3e}")
    if max(doc["mean_residual"], doc["mass_residual"]) > 1e-8:
        errors.append("extremal datum misses its mean constraints by more than 1e-8")
    return errors


def check_interior(spec: dict, points, values, cloud: int, centers: int, pairs: int) -> list[str]:
    """|F| <= 1 everywhere, F_1(x) <= h(|x|) on the cloud, and the mean-value
    property on antithetic probe spheres around each center.

    Rows of ``points`` are the cloud, then the centers, then for each
    center ``pairs`` probes followed by their antithetic partners.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    errors = []
    norms = np.linalg.norm(values, axis=1)
    if not np.all(np.isfinite(values)) or norms.max() > 1.0 + BALL_TOL:
        errors.append(f"|F(x)| reaches {float(norms.max())!r} > 1")
    c1 = float(spec["a"][0])
    rho = float(np.linalg.norm(_center(spec)[1:]))
    for x, v in zip(points[:cloud], values[:cloud]):
        h = ref.dual_bound(spec["n"], float(np.linalg.norm(x)), c1, rho)[0]
        if v[0] > h + INTERIOR_BOUND_TOL:
            errors.append(f"F_1 = {float(v[0])!r} at |x| = {float(np.linalg.norm(x))!r} exceeds the axis bound {h!r}")
            break
    errors.extend(check_mean_value(values[cloud : cloud + centers], values[cloud + centers :], pairs))
    return errors


def check_mean_value(center_values, probe_values, pairs: int) -> list[str]:
    """Sphere mean of each center's probes against the center value.

    For a harmonic F the mean of the antithetic pair averages is an
    unbiased estimate of F at the center; the gap is held to MV_SIGMAS
    standard errors of that mean.  Adding |x|^2 to a component shifts
    the mean by exactly the squared probe radius, with no added spread.
    """
    errors = []
    blocks = np.asarray(probe_values, dtype=float).reshape(len(center_values), 2 * pairs, -1)
    for j, center in enumerate(np.asarray(center_values, dtype=float)):
        pair_avg = 0.5 * (blocks[j, :pairs] + blocks[j, pairs:])
        mean = pair_avg.mean(axis=0)
        stderr = pair_avg.std(axis=0, ddof=1) / math.sqrt(pairs)
        gap = np.abs(mean - center)
        if np.any(gap > MV_SIGMAS * stderr + MV_FLOOR):
            k = int(np.argmax(gap - MV_SIGMAS * stderr))
            errors.append(
                f"sphere mean misses the center value by {gap[k]:.3e}"
                f" (standard error {stderr[k]:.3e}) in component {k}"
            )
    return errors


def check_residual(residual: float) -> list[str]:
    if not 0.0 <= residual <= MVR_BUDGET:
        return [f"mean_value_residual {residual!r} exceeds {MVR_BUDGET}"]
    return []


def check_axis_probe(value, expected) -> list[str]:
    gap = float(np.abs(np.asarray(value) - np.asarray(expected)).max())
    if not gap <= EVAL_TOL:
        return [f"on-axis value off the 1-D Poisson integral by {gap:.3e}"]
    return []


def _oracle_multiplier(spec: dict):
    e1 = np.zeros(spec["m"] + 1)
    e1[0] = 1.0
    c1, rho = ref.reduced_center(spec["a"], spec["b"], e1)
    h, nu1, s = ref.dual_bound(spec["n"], spec["r"], c1, rho)
    return h, ref.full_multiplier(spec["a"], spec["b"], e1, nu1, s)


def _weak_duality(spec: dict, value: float, weights, kernel, big_n) -> list[str]:
    upper = ref.discrete_dual(weights, kernel, spec["a"], spec["b"], big_n)
    if not value <= upper + DUALITY_SLACK * (1.0 + float(np.abs(big_n).sum())):
        return [f"oracle value {value!r} exceeds its dual bound {upper!r}"]
    return []


def check_oracle(spec: dict, value: float, weights, kernel) -> list[str]:
    """A certified discrete maximum: at most the discrete dual at the
    continuum multipliers on the same nodes, and near the dual minimum."""
    h, big_n = _oracle_multiplier(spec)
    errors = _weak_duality(spec, value, weights, kernel, big_n)
    if not abs(value - h) <= ORACLE_TOL:
        errors.append(f"oracle value {value!r} is {value - h:.3e} off the dual minimum {h!r}")
    return errors


def check_sphere_oracle(spec: dict, value: float, nodes) -> list[str]:
    """The sphere program's certified maximum: at most its discrete dual,
    and at least the objective of the constant datum u = a, which is
    feasible.  At 200 Monte Carlo nodes its distance to the continuum
    bound reaches 0.16 on these draws, so it is not held to it."""
    kernel = ref.sphere_kernel(nodes, spec["n"], spec["r"])
    weights = np.full(len(kernel), 1.0 / len(kernel))
    _, big_n = _oracle_multiplier(spec)
    errors = _weak_duality(spec, value, weights, kernel, big_n)
    floor = float(spec["a"][0]) * float(weights @ kernel)
    if not value >= floor - DUALITY_SLACK:
        errors.append(f"oracle value {value!r} is below the constant datum's {floor!r}")
    return errors
