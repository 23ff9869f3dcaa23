"""Self-test of the benchmark's checks, run from the checkout root:

    PYTHONPATH=src python3 perfbench/selftest.py

Each check must accept the package's honest output and reject a
deliberately wrong one: a bound shifted by 1e-4, an evaluator with |x|^2
added to its first component, an on-axis value shifted by 1e-4, and an
oracle value above its dual bound.  Exits 1 if any check misjudges.
"""

from __future__ import annotations

import sys

import numpy as np

import checks
import reference
import workloads
from harmonic_schwarz import bounds, mapping, oracle, sphere
from harmonic_schwarz.solver import ProblemSpec


def verdicts(name: str, honest: list[str], wrong: list[str]) -> bool:
    ok = not honest and bool(wrong)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: honest {honest[:1] or 'accepted'}, wrong {wrong[:1] or 'accepted'}")
    return ok


def main() -> int:
    results = []
    rng = np.random.default_rng(7)

    for spec in (
        workloads.spec_dict(3, 2, 0.6, [0.3, -0.1], 0.4),
        workloads.spec_dict(4, 1, 0.5, [-0.35], 0.0),
        workloads.spec_dict(2, 1, 0.999, [0.2], 3e-9),
    ):
        env = bounds.region_envelope(ProblemSpec(**spec), count=4, scheme="random", seed=3)
        results.append(
            verdicts(
                f"bound n={spec['n']} r={spec['r']} b={spec['b']}",
                checks.check_envelope(spec, env.directions, env.values),
                checks.check_envelope(spec, env.directions, env.values + 1e-4)
                + checks.check_envelope(spec, env.directions, env.values - 1e-4),
            )
        )

    value = bounds.classical_bound(2, 0.7)
    results.append(verdicts("classical", checks.check_classical(2, 0.7, value), checks.check_classical(2, 0.7, value + 1e-4)))

    spec = workloads.spec_dict(3, 2, 0.5, [0.25, -0.1], 0.35)
    bmap = mapping.boundary_map(ProblemSpec(**spec))
    grid = np.linspace(-1.0, 1.0, 33)
    samples = np.column_stack((grid, bmap.components(grid).T))
    doc = dict(
        {"lambda": bmap.solution.lam.tolist(), "mu": bmap.solution.mu},
        samples=samples.tolist(),
        mean_residual=0.0,
        mass_residual=0.0,
    )
    bent = dict(doc, samples=(samples + np.r_[0.0, 1e-4, 0.0, 0.0]).tolist())
    results.append(verdicts("extremal datum", checks.check_extremal(spec, doc), checks.check_extremal(spec, bent)))

    n = spec["n"]
    cloud = np.array([workloads._ball_point(rng, n, 0.95) for _ in range(workloads.INTERIOR_CLOUD)])
    centers = np.array([workloads._ball_point(rng, n, 0.3) for _ in range(workloads.MV_CENTERS)])
    dirs = rng.normal(size=(workloads.MV_CENTERS, workloads.MV_PAIRS, n))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    probes = centers[:, None, :] + workloads.MV_RADIUS * np.concatenate((dirs, -dirs), axis=1)
    pts = np.vstack((cloud, centers, probes.reshape(-1, n)))
    vals = mapping.eval_batch(bmap, pts)
    perturbed = vals.copy()
    perturbed[:, 0] += np.einsum("ij,ij->i", pts, pts)
    shape = (workloads.INTERIOR_CLOUD, workloads.MV_CENTERS, workloads.MV_PAIRS)
    # the mean-value check alone: |F| <= 1 would also catch this evaluator
    start = workloads.INTERIOR_CLOUD
    stop = start + workloads.MV_CENTERS
    results.append(
        verdicts(
            "evaluator + |x|^2, mean-value check",
            checks.check_interior(spec, pts, vals, *shape),
            checks.check_mean_value(perturbed[start:stop], perturbed[stop:], workloads.MV_PAIRS),
        )
    )

    x = np.zeros(n)
    x[-1] = 0.9
    value = mapping.eval_general(bmap, x).value
    expected = reference.axis_poisson(bmap.components, n, 0.9, bmap.breakpoints)
    results.append(
        verdicts("on-axis value", checks.check_axis_probe(value, expected), checks.check_axis_probe(value + 1e-4, expected))
    )

    spec = workloads.ORACLE_SPECS[2]
    value = oracle.discretized_max(ProblemSpec(**spec), node_count=workloads.ORACLE_NODES)
    program = oracle.build_program(ProblemSpec(**spec), workloads.ORACLE_NODES)
    above = checks._oracle_multiplier(spec)[1]
    upper = reference.discrete_dual(program.weights, program.kernel, spec["a"], spec["b"], above)
    results.append(
        verdicts(
            "oracle value",
            checks.check_oracle(spec, value, program.weights, program.kernel),
            checks.check_oracle(spec, upper + 1e-6, program.weights, program.kernel),
        )
    )
    value = oracle.discretized_max_sphere(ProblemSpec(**spec), node_count=workloads.SPHERE_NODES)
    half = sphere.sample_sphere(spec["n"], workloads.SPHERE_NODES // 2, 0)
    nodes = np.vstack((half, -half))
    kernel = reference.sphere_kernel(nodes, spec["n"], spec["r"])
    upper = reference.discrete_dual(np.full(len(kernel), 1.0 / len(kernel)), kernel, spec["a"], spec["b"], above)
    results.append(
        verdicts(
            "sphere oracle value",
            checks.check_sphere_oracle(spec, value, nodes),
            checks.check_sphere_oracle(spec, upper + 1e-6, nodes),
        )
    )
    print(f"{sum(results)}/{len(results)} checks judge correctly")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
