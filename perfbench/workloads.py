"""Seeded inputs of the four workloads.

Everything here is plain NumPy: the benchmark makes every problem spec,
direction and point itself, and the package under test receives only
these inputs.  A run repeats whole rounds; round ``k`` of a workload is
drawn from ``default_rng([seed, k])``, so the same seed gives the same
inputs however many rounds a run reaches, and every round holds the
same operations.
"""

from __future__ import annotations

import numpy as np

# Edge regimes of the solver: a near-degenerate center (b in [1e-9,
# 1e-6], zero tail) alone and paired with r near 1, n = 16 and m = 8.
# The tail regime (|a_2..m| = 1e-5 at b = 0) is left out: the zero-b
# solve raises on some of its centers and not on others (see CHANGES.md),
# and an operation that fails only on some seeds cannot be counted
# steadily.
EDGE_KINDS = ("plain", "r_near_1", "n16", "m8")

REGULAR_SPECS_PER_ROUND = 12
REGULAR_DIRECTIONS = 16

INTERIOR_CLOUD = 128  # points with |x| <= 0.95 per witness and round
MV_CENTERS = 4  # mean-value centers per witness and round
MV_PAIRS = 64  # antithetic probe pairs per center
MV_RADIUS = 0.05
MV_CENTER_RADIUS = 0.6
MVR_PROBES = 256  # probe_count of mean_value_residual
# On-axis probes of a fixed smooth witness.  The evaluator's biaxial
# rule has no cap grading, so the radii 0.99 and 0.999 come out wrong;
# they do not depend on the seed, so they fail in every round and the
# failed share stays exact.
AXIS_PROBE_SPEC = dict(n=3, m=2, r=0.5, a=(0.25, -0.1), b=0.35)
AXIS_PROBE_RADII = (0.97, 0.99, 0.999)


def round_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, k])


def _ball_point(rng, dim: int, radius: float) -> np.ndarray:
    x = rng.normal(size=dim)
    x /= np.linalg.norm(x)
    return radius * float(rng.uniform()) ** (1.0 / dim) * x


def spec_dict(n, m, r, a, b) -> dict:
    return dict(n=int(n), m=int(m), r=float(r), a=[float(v) for v in a], b=float(b))


def regular_spec(rng, zero_b_share: float = 0.2) -> dict:
    """n in 2..4, m in 1..3, r in [0.1, 0.9], |(a, b)| <= 0.85, b >= 0.05 or b = 0.

    A b = 0 center has a zero tail (jump datum) or tail entries in
    [0.08, 0.45], away from the ill-conditioned sliver of tiny tails.
    """
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 4))
    r = float(rng.uniform(0.1, 0.9))
    if rng.uniform() < zero_b_share:
        if m == 1 or rng.uniform() < 0.5:
            a = np.zeros(m)
            a[0] = float(rng.uniform(0.1, 0.8)) * float(rng.choice([-1.0, 1.0]))
        else:
            a = rng.uniform(0.08, 0.45, size=m) * rng.choice([-1.0, 1.0], size=m)
        return spec_dict(n, m, r, a, 0.0)
    while True:
        c = _ball_point(rng, m + 1, 0.85)
        if abs(c[m]) >= 0.05:
            return spec_dict(n, m, r, c[:m], abs(c[m]))


def edge_spec(rng, extra: str) -> dict:
    """b in [1e-9, 1e-6] (log-uniform) with a zero tail: the extremal datum
    turns over inside a latitude layer far thinner than any fixed rule
    resolves, which sends the solver onto graded re-anchoring."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 4))
    r = float(rng.uniform(0.1, 0.9))
    if extra == "r_near_1":
        r = float(rng.choice([0.99, 0.999]))
    elif extra == "n16":
        n = 16
    elif extra == "m8":
        m = 8
    a = np.zeros(m)
    a[0] = float(rng.uniform(0.1, 0.8)) * float(rng.choice([-1.0, 1.0]))
    b = float(10.0 ** rng.uniform(-9.0, -6.0))
    return spec_dict(n, m, r, a, b)


def axis_pair(m: int) -> list:
    """Directions +e1 and -e1: both keep an edge center in its regime."""
    e = np.zeros(m + 1)
    e[0] = 1.0
    return [e.tolist(), (-e).tolist()]


def envelope_round(seed: int, k: int) -> dict:
    rng = round_rng(seed, k)
    regular = [
        dict(spec=regular_spec(rng), count=REGULAR_DIRECTIONS, seed=int(rng.integers(1 << 31)))
        for _ in range(REGULAR_SPECS_PER_ROUND)
    ]
    edge = []
    for extra in EDGE_KINDS:
        spec = edge_spec(rng, extra)
        edge.append(dict(spec=spec, kind=extra, directions=axis_pair(spec["m"])))
    return dict(regular=regular, edge=edge)


def interior_witnesses(seed: int) -> list:
    """Two smooth (b >= 0.3) and two jump (b = 0, zero tail) witnesses, n = 3 and 4.

    The evaluator's cost is set by the node count: n >= 3 does not change
    it, a jump doubles it, and the graded breakpoints of a thin-layer
    datum multiply it.  b >= 0.3 with r <= 0.7 keeps the smooth datums
    unsegmented (none had breakpoints at seeds 0-149), so every seed evaluates
    the same node counts.  n = 2 uses an angular rule some 30 times
    smaller and is left to the other workloads.
    """
    rng = round_rng(seed, 1 << 20)
    out = []
    for n in (3, 4):
        m = int(rng.integers(1, 4))
        r = float(rng.uniform(0.2, 0.7))
        while True:
            c = _ball_point(rng, m + 1, 0.8)
            if abs(c[m]) >= 0.3:
                break
        out.append(dict(kind="smooth", spec=spec_dict(n, m, r, c[:m], abs(c[m]))))
        m = int(rng.integers(1, 4))
        r = float(rng.uniform(0.2, 0.7))
        a = np.zeros(m)
        a[0] = float(rng.uniform(0.1, 0.8)) * float(rng.choice([-1.0, 1.0]))
        out.append(dict(kind="jump", spec=spec_dict(n, m, r, a, 0.0)))
    return out


def interior_round(seed: int, k: int, specs: list) -> list:
    """Per witness spec: one cloud evaluation and one mean_value_residual
    call; then the on-axis probes of the witness that follows them."""
    rng = round_rng(seed, k)
    ops = []
    for i, spec in enumerate(specs):
        n = spec["n"]
        cloud = np.array([_ball_point(rng, n, 0.95) for _ in range(INTERIOR_CLOUD)])
        centers = np.array([_ball_point(rng, n, MV_CENTER_RADIUS) for _ in range(MV_CENTERS)])
        dirs = rng.normal(size=(MV_CENTERS, MV_PAIRS, n))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        ops.append(
            dict(
                op="cloud",
                witness=i,
                cloud=cloud,
                centers=centers,
                probes=np.concatenate((dirs, -dirs), axis=1),
            )
        )
        ops.append(
            dict(
                op="mean_value_residual",
                witness=i,
                x=_ball_point(rng, n, MV_CENTER_RADIUS),
                seed=int(rng.integers(1 << 31)),
            )
        )
    for rho in AXIS_PROBE_RADII:
        ops.append(dict(op="axis_probe", witness=len(specs), rho=rho))
    return ops


# The oracle draws: the centers of the oracle acceptance criterion's
# generator (its seed 271828), draws 2, 4, 6 and 9, one of each cost
# class (n = 4 with b > 0, n = 2 with b > 0 and m = 3, a jump center,
# n = 2 with b > 0 and m = 2), solved with the default restart seed as
# the criterion does.  Per-draw cost spreads 40-fold over the centers of
# that generator and up to 4-fold over restart seeds, so draws made from
# the run's seed would measure the draw, not the code: this workload's
# inputs are the same for every seed.
ORACLE_SPECS = (
    spec_dict(4, 1, 0.4023348294600746, [0.5049830155399615], 0.38516386856993334),
    spec_dict(
        2,
        3,
        0.5344168177534611,
        [0.031445572278978484, -0.48240426838079264, 0.4258894324630108],
        0.04371872026490415,
    ),
    spec_dict(3, 1, 0.5240115154034755, [-0.24722070801595558], 0.0),
    spec_dict(2, 2, 0.39832028590432345, [0.1323359535343646, -0.3962628916680752], 0.3168743495961149),
)
ORACLE_NODES = 2048
# discretized_max_sphere at its default 200 nodes, on the two draws where
# it takes under a second (0.4-3.7 s over the four)
SPHERE_DRAWS = (1, 2)
SPHERE_NODES = 200


def _float_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _problem_flags(spec: dict) -> list[str]:
    # "--flag=value" keeps a leading minus sign from reading as an option
    return [
        f"--n={spec['n']}",
        f"--m={spec['m']}",
        f"--r={spec['r']!r}",
        f"--a={_float_list(spec['a'])}",
        f"--b={spec['b']!r}",
    ]


def _unit(rng, dim: int) -> list:
    e = rng.normal(size=dim)
    return (e / np.linalg.norm(e)).tolist()


def cli_round(seed: int, k: int) -> list:
    """Eight CLI calls: ``bound`` in json and csv, with and without --e, at
    b > 0 and b = 0; ``extremal``; ``classical --n 2``; and ``region
    --directions 64`` twice with the same flags, whose outputs must be
    byte-identical."""
    rng = round_rng(seed, k)
    calls = []
    for zero_b, fmt, with_e in ((0, "json", 0), (0, "csv", 1), (1, "json", 1), (1, "csv", 0)):
        spec = regular_spec(rng, zero_b_share=float(zero_b))
        e = _unit(rng, spec["m"] + 1) if with_e else None
        argv = ["bound", *_problem_flags(spec), f"--format={fmt}"]
        if e is not None:
            argv.append(f"--e={_float_list(e)}")
        calls.append(dict(kind="bound", spec=spec, e=e, format=fmt, argv=argv))
    spec = regular_spec(rng)
    calls.append(
        dict(kind="extremal", spec=spec, argv=["extremal", *_problem_flags(spec), "--format=json"])
    )
    r = float(rng.uniform(0.1, 0.9))
    calls.append(
        dict(kind="classical", n=2, r=r, argv=["classical", "--n=2", f"--r={r!r}", "--format=json"])
    )
    spec = regular_spec(rng)
    argv = ["region", *_problem_flags(spec), "--directions=64", f"--seed={int(rng.integers(1 << 31))}"]
    calls.append(dict(kind="region", spec=spec, argv=argv))
    calls.append(dict(kind="region_repeat", spec=spec, argv=list(argv)))
    return calls
