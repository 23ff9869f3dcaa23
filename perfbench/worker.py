"""One benchmark process: import the package, set up, run whole rounds.

Invoked by ``run.py`` as ``python3 perfbench/worker.py '<json config>'``
with the checkout's ``src`` first on PYTHONPATH.  It times the import
and the set-up from its first statement, then (mode "run") repeats
rounds until the configured seconds have passed or the configured
number of rounds is done, timing each operation alone.  Inputs are made
between operations, outside the timed calls.  The result, with the
outputs ``run.py`` checks, goes to standard output as a pickle.
"""

import json
import pickle
import sys
import time


def main() -> int:
    cfg = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import harmonic_schwarz
    import harmonic_schwarz.cli

    import_s = time.perf_counter() - t0
    tracer = None
    if cfg["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    workload = WORKLOADS[cfg["workload"]](cfg["seed"])
    setup_s = time.perf_counter() - t0
    out = dict(module=harmonic_schwarz.__file__, import_s=import_s, setup_s=setup_s, rounds=[])
    if cfg["mode"] == "run":
        start = time.perf_counter()
        k = 0
        while True:
            out["rounds"].append(workload.round(k, tracer))
            k += 1
            if cfg["rounds"] is not None:
                if k >= cfg["rounds"]:
                    break
            elif time.perf_counter() - start >= cfg["seconds"]:
                break
        out["spans"] = tracer.spans if tracer else None
    sys.stdout.buffer.write(pickle.dumps(out))
    return 0


def _timed(tracer, name, fn, *args, **kwargs):
    """Run one operation; returns (output, seconds)."""
    if tracer is None:
        t = time.perf_counter()
        value = fn(*args, **kwargs)
        return value, time.perf_counter() - t
    with tracer.span(name) as record:
        value = fn(*args, **kwargs)
    return value, record[2] - record[1]


class Cli:
    """In-process ``cli.main`` on the CLI workload's calls (traced runs only)."""

    def __init__(self, seed):
        self.seed = seed

    def round(self, k, tracer):
        import contextlib
        import io

        import workloads
        from harmonic_schwarz import cli

        ops = []
        for call in workloads.cli_round(self.seed, k):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code, dt = _timed(tracer, "op.cli", cli.main, call["argv"])
            ops.append(dict(call=call, code=code, stdout=buf.getvalue().encode(), t=dt))
        return ops


class Envelope:
    """Builds the latitude rules of every dimension the specs use (full and
    half order, plain and segmented), then sweeps envelopes."""

    def __init__(self, seed):
        from harmonic_schwarz import sphere

        self.seed = seed
        self.rules = {}
        for n in (2, 3, 4, 16):
            for order in (sphere.DEFAULT_ORDER, sphere.DEFAULT_ORDER // 2):
                rule = sphere.zonal_rule(n, order)
                sphere.segmented_nodes(rule, (-0.5, 0.5))
            self.rules[n] = sphere.zonal_rule(n, sphere.DEFAULT_ORDER)

    def round(self, k, tracer):
        import numpy as np

        import workloads
        from harmonic_schwarz import bounds
        from harmonic_schwarz.solver import ProblemSpec

        rd = workloads.envelope_round(self.seed, k)
        ops = []
        for item in rd["regular"]:
            spec = ProblemSpec(**item["spec"])
            env, dt = _timed(
                tracer,
                "op.regular",
                bounds.region_envelope,
                spec,
                self.rules[spec.n],
                count=item["count"],
                scheme="random",
                seed=item["seed"],
            )
            ops.append(dict(regime="regular", spec=item["spec"], directions=env.directions, values=env.values, t=dt))
        for item in rd["edge"]:
            spec = ProblemSpec(**item["spec"])
            env, dt = _timed(
                tracer,
                "op.edge",
                bounds.region_envelope,
                spec,
                self.rules[spec.n],
                directions=np.array(item["directions"]),
            )
            ops.append(
                dict(regime="edge", kind=item["kind"], spec=item["spec"], directions=env.directions, values=env.values, t=dt)
            )
        return ops


class Interior:
    """Solves the witnesses and warms the evaluator's rules with one point each."""

    def __init__(self, seed):
        import numpy as np

        import workloads
        from harmonic_schwarz import mapping
        from harmonic_schwarz.solver import ProblemSpec

        self.seed = seed
        self.specs = [w["spec"] for w in workloads.interior_witnesses(seed)]
        self.specs.append(workloads.spec_dict(**workloads.AXIS_PROBE_SPEC))
        self.maps = [mapping.boundary_map(ProblemSpec(**s)) for s in self.specs]
        for bmap in self.maps:
            mapping.eval_batch(bmap, np.zeros((1, bmap.spec.n)))
        mapping.eval_general(self.maps[-1], np.zeros(self.maps[-1].spec.n))

    def round(self, k, tracer):
        import numpy as np

        import reference
        import workloads
        from harmonic_schwarz import mapping, oracle

        ops = []
        for op in workloads.interior_round(self.seed, k, self.specs[:-1]):
            bmap = self.maps[op["witness"]]
            n = bmap.spec.n
            rec = dict(op=op["op"], witness=op["witness"], spec=self.specs[op["witness"]])
            if op["op"] == "cloud":
                probes = op["centers"][:, None, :] + workloads.MV_RADIUS * op["probes"]
                pts = np.vstack((op["cloud"], op["centers"], probes.reshape(-1, n)))
                vals, dt = _timed(tracer, "op.cloud", mapping.eval_batch, bmap, pts)
                rec.update(points=pts, values=vals, count=len(pts))
            elif op["op"] == "mean_value_residual":
                res, dt = _timed(
                    tracer,
                    "op.mean_value_residual",
                    oracle.mean_value_residual,
                    lambda p: mapping.eval_batch(bmap, p),
                    op["x"],
                    workloads.MV_RADIUS,
                    probe_count=workloads.MVR_PROBES,
                    seed=op["seed"],
                )
                rec.update(residual=res, count=workloads.MVR_PROBES + 1)
            else:
                x = np.zeros(n)
                x[-1] = op["rho"]
                ev, dt = _timed(tracer, "op.axis_probe", mapping.eval_general, bmap, x)
                expected = reference.axis_poisson(bmap.components, n, op["rho"], bmap.breakpoints)
                rec.update(rho=op["rho"], value=ev.value, expected=expected, count=1)
            rec["t"] = dt
            ops.append(rec)
        return ops


class Oracle:
    """Builds the 2048-node latitude rule of every draw's dimension."""

    def __init__(self, seed):
        import workloads
        from harmonic_schwarz import oracle, sphere

        for spec in workloads.ORACLE_SPECS:
            sphere.zonal_rule(spec["n"], workloads.ORACLE_NODES)
        # an untraced handle for the check data, fetched outside the timed calls
        self.build_program = oracle.build_program

    def round(self, k, tracer):
        import numpy as np

        import workloads
        from harmonic_schwarz import oracle
        from harmonic_schwarz.solver import ProblemSpec
        from harmonic_schwarz.sphere import sample_sphere

        ops = []
        for raw in workloads.ORACLE_SPECS:
            spec = ProblemSpec(**raw)
            value, dt = _timed(
                tracer, "op.discretized_max", oracle.discretized_max, spec, node_count=workloads.ORACLE_NODES
            )
            program = self.build_program(spec, workloads.ORACLE_NODES)
            ops.append(
                dict(op="discretized_max", spec=raw, value=value, weights=program.weights, kernel=program.kernel, t=dt)
            )
        for i in workloads.SPHERE_DRAWS:
            raw = workloads.ORACLE_SPECS[i]
            spec = ProblemSpec(**raw)
            value, dt = _timed(
                tracer,
                "op.discretized_max_sphere",
                oracle.discretized_max_sphere,
                spec,
                node_count=workloads.SPHERE_NODES,
            )
            # the nodes discretized_max_sphere draws at its default seed 0
            half = sample_sphere(spec.n, workloads.SPHERE_NODES // 2, 0)
            ops.append(dict(op="discretized_max_sphere", spec=raw, value=value, nodes=np.vstack((half, -half)), t=dt))
        return ops


WORKLOADS = dict(cli=Cli, envelope=Envelope, interior=Interior, oracle=Oracle)

if __name__ == "__main__":
    raise SystemExit(main())
