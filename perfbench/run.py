"""Benchmark of the harmonic-schwarz package, run from the checkout root:

    python3 perfbench/run.py --workload cli|envelope|interior|oracle \
        --seed N --seconds S --trace 0|1

One process drives the load in a closed loop, one operation at a time,
with at most one child process alive.  The package is imported from the
checkout's ``src`` in child processes only: ``worker.py`` for the
in-process workloads, ``python -m harmonic_schwarz`` for the CLI calls.
This process makes the inputs, checks every output against
``reference`` after the timed work, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
fixed number of rounds runs three times in fresh workers, untraced,
traced and untraced, and the metrics are the per-layer ones derived
from the spans, plus the tracing overhead.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_SAMPLES = 3  # fresh processes timed from import to ready; the worker is one
TRACE_ROUNDS = dict(cli=4, envelope=4, interior=2, oracle=1)
# The known fault kept in the interior workload: the evaluator integrates
# with a biaxial rule that has no cap grading, so on-axis values at these
# radii are wrong.  They fail in every round until the evaluator is mended.
KNOWN_FAULT_RADII = (0.99, 0.999)


def child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: on 2 cores a second OpenBLAS thread contends with
    # the interpreter's and makes timings swing (see README.md).
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(name, "1")
    path = [str(SRC)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def run_child(argv: list[str]) -> tuple[bytes, int, float, float]:
    """Run one child to its end: (stdout, exit code, wall seconds, peak RSS in MB)."""
    t = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    try:
        data = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return data, proc.returncode, time.perf_counter() - t, usage.ru_maxrss / 1024.0


def worker(workload: str, seed: int, mode: str, trace: bool = False, seconds=None, rounds=None) -> dict:
    cfg = dict(workload=workload, seed=seed, mode=mode, trace=trace, seconds=seconds, rounds=rounds)
    data, code, _, rss = run_child([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)])
    if code != 0:
        raise RuntimeError(f"worker for {workload} exited with code {code}")
    out = pickle.loads(data)
    if not Path(out["module"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported harmonic_schwarz from {out['module']}, not from {SRC}")
    out["rss_mb"] = rss
    return out


def setup_samples(workload: str, seed: int, count: int) -> tuple[list[float], list[float]]:
    """(set-up, import) seconds of ``count`` fresh processes that only set up."""
    setups, imports = [], []
    for _ in range(count):
        out = worker(workload, seed, "setup")
        setups.append(out["setup_s"])
        imports.append(out["import_s"])
    return setups, imports


# ---------------------------------------------------------------- checks


def _e1(m: int) -> list:
    e = [0.0] * (m + 1)
    e[0] = 1.0
    return e


def check_cli_output(call: dict, stdout: bytes, code: int, previous: bytes | None) -> list[str]:
    if code != 0:
        return [f"{call['kind']} exited with code {code}"]
    text = stdout.decode()
    kind = call["kind"]
    spec = call.get("spec")
    if kind == "bound":
        if call["format"] == "json":
            value = json.loads(text)["value"]
        else:
            header, row = text.splitlines()
            value = float(dict(zip(header.split(","), row.split(",")))["value"])
        return checks.check_bound(spec, call["e"] or _e1(spec["m"]), value)
    if kind == "extremal":
        return checks.check_extremal(spec, json.loads(text))
    if kind == "classical":
        return checks.check_classical(call["n"], call["r"], json.loads(text)["value"])
    if kind == "region":
        doc = json.loads(text)
        halfspaces = doc["halfspaces"]
        errors = [] if len(halfspaces) == 64 else [f"region gave {len(halfspaces)} halfspaces"]
        return errors + checks.check_envelope(
            spec, [h["e"] for h in halfspaces], [h["h"] for h in halfspaces]
        )
    if stdout != previous:
        return ["region output is not byte-identical for identical flags"]
    return []


def check_round(workload: str, ops: list) -> list[tuple[bool, list[str]]]:
    """(known fault, errors) per operation of one round."""
    out = []
    previous = None
    for op in ops:
        known = False
        if workload == "cli":
            errors = check_cli_output(op["call"], op["stdout"], op["code"], previous)
            previous = op["stdout"]
        elif workload == "envelope":
            errors = checks.check_envelope(op["spec"], op["directions"], op["values"])
        elif workload == "interior":
            if op["op"] == "cloud":
                errors = checks.check_interior(
                    op["spec"],
                    op["points"],
                    op["values"],
                    workloads.INTERIOR_CLOUD,
                    workloads.MV_CENTERS,
                    workloads.MV_PAIRS,
                )
            elif op["op"] == "mean_value_residual":
                errors = checks.check_residual(op["residual"])
            else:
                errors = checks.check_axis_probe(op["value"], op["expected"])
                known = op["rho"] in KNOWN_FAULT_RADII
        elif op["op"] == "discretized_max":
            errors = checks.check_oracle(op["spec"], op["value"], op["weights"], op["kernel"])
        else:
            errors = checks.check_sphere_oracle(op["spec"], op["value"], op["nodes"])
        out.append((known, errors))
    return out


def tally(workload: str, rounds: list) -> tuple[int, int, bool]:
    attempted = failed = 0
    correct = True
    for ops in rounds:
        for known, errors in check_round(workload, ops):
            attempted += 1
            if errors:
                failed += 1
                if not known:
                    correct = False
                    print(f"{workload}: {errors[0]}", file=sys.stderr)
    return attempted, failed, correct


# ---------------------------------------------------------------- metrics


def op_seconds(rounds: list) -> float:
    return sum(op["t"] for ops in rounds for op in ops)


def headline(workload: str, rounds: list) -> tuple[float, float]:
    """(op_ms, work_per_s) of one run; README.md defines them per workload."""
    ops = [op for r in rounds for op in r]
    if workload == "cli":
        walls = [op["t"] for op in ops]
        return 1e3 * statistics.median(walls), len(walls) / sum(walls)
    if workload == "envelope":
        sweeps = [len(op["values"]) / op["t"] for op in ops if op["regime"] == "regular"]
        edge = [1e3 * op["t"] / len(op["values"]) for op in ops if op["regime"] == "edge"]
        return statistics.median(edge), statistics.median(sweeps)
    if workload == "interior":
        per_round = [1e3 * sum(op["t"] for op in r) / len(r) for r in rounds]
        return statistics.median(per_round), sum(op["count"] for op in ops) / op_seconds(rounds)
    # the four fixed draws differ 15-fold in cost, so a median would be
    # the time of whichever draws sit in the middle: report the mean
    draws = [1e3 * op["t"] for op in ops if op["op"] == "discretized_max"]
    return statistics.fmean(draws), len(ops) / op_seconds(rounds)


def cli_rounds(seed: int, seconds: float) -> tuple[list, float]:
    python = [sys.executable, "-m", "harmonic_schwarz"]
    rounds, peak = [], 0.0
    start = time.perf_counter()
    k = 0
    while not rounds or time.perf_counter() - start < seconds:
        ops = []
        for call in workloads.cli_round(seed, k):
            stdout, code, wall, rss = run_child(python + call["argv"])
            ops.append(dict(call=call, stdout=stdout, code=code, t=wall))
            peak = max(peak, rss)
        rounds.append(ops)
        k += 1
    return rounds, peak


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    if workload == "cli":
        # a CLI call builds what it needs itself: its set-up is the import
        setups, _ = setup_samples(workload, seed, SETUP_SAMPLES)
        rounds, rss = cli_rounds(seed, seconds)
    else:
        setups, _ = setup_samples(workload, seed, SETUP_SAMPLES - 1)
        out = worker(workload, seed, "run", seconds=seconds)
        setups.append(out["setup_s"])
        rounds, rss = out["rounds"], out["rss_mb"]
    op_ms, work = headline(workload, rounds)
    metrics = dict(
        setup_s=(statistics.median(setups), "s"),
        peak_rss_mb=(rss, "MB"),
        op_ms=(op_ms, "ms"),
        work_per_s=(work, "1/s"),
    )
    return metrics, rounds


def per_layer(workload: str, seed: int) -> tuple[dict, list]:
    _, imports = setup_samples("cli", seed, SETUP_SAMPLES)
    rounds = TRACE_ROUNDS[workload]
    # untraced passes before and after the traced one, so that a drift in
    # machine speed over the run cancels out of the overhead
    before = worker(workload, seed, "run", rounds=rounds)
    traced = worker(workload, seed, "run", trace=True, rounds=rounds)
    after = worker(workload, seed, "run", rounds=rounds)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload}-{seed}.json", "w") as handle:
        json.dump(dict(fields=["name", "start", "end", "parent", "attributes"], spans=traced["spans"]), handle)
    values = spans.layer_metrics(traced["spans"], imports)
    plain = 0.5 * (op_seconds(before["rounds"]) + op_seconds(after["rounds"]))
    values["trace.overhead_pct"] = 100.0 * (op_seconds(traced["rounds"]) / plain - 1.0)
    metrics = {name: (values[name], unit) for name, unit in spans.PER_LAYER.items()}
    return metrics, before["rounds"] + traced["rounds"] + after["rounds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli", "envelope", "interior", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace:
        metrics, rounds = per_layer(args.workload, args.seed)
    else:
        metrics, rounds = end_to_end(args.workload, args.seed, args.seconds)
    attempted, failed, correct = tally(args.workload, rounds)
    result = dict(
        correct=correct,
        attempted=attempted,
        failed=failed,
        metrics={name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
