"""Seeded inputs for the four benchmark workloads.

Each workload is a list of `gaussqt` argv lists that the worker cycles
through, one `cli.main` call per op.  The token "{out}" in an argv is replaced
by that op's own output path.  Everything random comes from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Plan:
    workload: str
    ops: list            # argv per op, cycled
    warmup: list         # one untimed op that loads every code path first
    out_suffix: str
    rows_per_op: int     # output rows written by one op
    expect: list         # per entry of `ops`, what the checker needs to know
    size: dict           # input size, printed with the result


def _r(x: float) -> str:
    # repr round-trips, so the CLI parses exactly the value the checker uses
    return repr(float(x))


def _sweep(family: str, seed: int, steps: int, fmt: str, tiny: bool) -> Plan:
    rng = np.random.default_rng(seed)
    # both the entanglement and the teleportation threshold cross the plane
    r = float(rng.uniform(0.3, 0.6))
    if family == "tmst":
        names, axes = ("k1", "k2"), ((0.5, 2.5, steps), (0.5, 2.5, steps))
    else:
        names, axes = ("k", "T"), ((0.5, 2.0, steps), (0.05, 0.95, steps))

    def argv(a1, a2, out):
        return ["sweep", family, "--r", _r(r),
                f"--{names[0]}", f"{a1[0]}:{a1[1]}:{a1[2]}",
                f"--{names[1]}", f"{a2[0]}:{a2[1]}:{a2[2]}",
                "--format", fmt, "--out", out]

    # a bs run holds a few ops, and the first op at full size is slower than
    # the rest (the heap grows to its working set), so warm up at full size;
    # a tmst run holds one op, which is always the first
    warm = axes if family == "bs" and not tiny else (
        (axes[0][0], axes[0][1], 11), (axes[1][0], axes[1][1], 11))
    rows = steps * steps
    return Plan(
        workload=f"sweep-{family}-{fmt}",
        ops=[argv(*axes, "{out}")],
        warmup=argv(*warm, "{out}"),
        out_suffix="." + fmt,
        rows_per_op=rows,
        expect=[{"family": family, "fmt": fmt, "r": r, "axes": axes, "names": names}],
        size={"grid": f"{steps}x{steps}", "rows": rows, "r": r},
    )


def _rotations(theta: np.ndarray) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def _analyze(seed: int, work: Path, n: int) -> Plan:
    from gaussqt import core, resources, sampling

    rng = np.random.default_rng(seed)
    n_unphysical = max(1, round(0.05 * n))
    n_rotated = round(0.30 * n)
    n_separable = round(0.25 * n)
    n_random = n - n_unphysical - n_rotated - n_separable

    cases = []
    for V in sampling.random_physical_covmats(rng, n_random):
        cases.append({"kind": "random", "V": V})
    for V in sampling.random_separable_covmats(rng, n_separable):
        cases.append({"kind": "separable", "V": V})

    # TMSTs with r just either side of the entanglement threshold, turned by
    # local rotations so they are not in standard form
    k1 = rng.uniform(0.75, 3.0, n_rotated)
    k2 = rng.uniform(0.75, 3.0, n_rotated)
    r_ent = np.asarray(resources.r_ent_threshold(k1, k2))
    side = np.where(rng.random(n_rotated) < 0.5, -1.0, 1.0)
    r = r_ent + side * rng.uniform(1e-3, 2e-2, n_rotated)
    S = np.zeros((n_rotated, 4, 4))
    S[:, :2, :2] = _rotations(rng.uniform(0.0, 2.0 * math.pi, n_rotated))
    S[:, 2:, 2:] = _rotations(rng.uniform(0.0, 2.0 * math.pi, n_rotated))
    V = S @ resources.tmst_covmat(r, k1, k2) @ np.swapaxes(S, -1, -2)
    V = 0.5 * (V + np.swapaxes(V, -1, -2))
    for i in range(n_rotated):
        cases.append({"kind": "rotated_tmst", "V": V[i], "entangled": bool(r[i] > r_ent[i])})

    # halving a state with both thermal parameters below 0.9 puts nu_minus
    # below 0.45, well outside the physicality guard band
    r_u = rng.uniform(0.0, 1.0, n_unphysical)
    V = 0.5 * resources.tmst_covmat(
        r_u, rng.uniform(0.5, 0.9, n_unphysical), rng.uniform(0.5, 0.9, n_unphysical))
    for i in range(n_unphysical):
        cases.append({"kind": "unphysical", "V": V[i]})

    order = rng.permutation(len(cases))
    cases = [cases[i] for i in order]
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, case in enumerate(cases):
        path = inputs / f"state-{i:05d}.json"
        core.save_covmat(case["V"], path)
        ops.append(["analyze", str(path), "--out", "{out}"])
    kinds = {k: sum(c["kind"] == k for c in cases)
             for k in ("random", "separable", "rotated_tmst", "unphysical")}
    return Plan(
        workload="analyze-files",
        ops=ops,
        warmup=ops[0],
        out_suffix=".json",
        rows_per_op=1,
        expect=cases,
        size={"input_files": len(cases), **kinds},
    )


def _oracle(seed: int, n: int) -> Plan:
    rng = np.random.default_rng(seed)
    ops, expect = [], []
    for _ in range(n):
        # r <= 1.2 and k <= 2 keep the default quadrature spec converged
        r = float(rng.uniform(0.0, 1.2))
        if rng.random() < 0.5:
            family = "tmst"
            params = {"r": r, "k1": float(rng.uniform(0.5, 2.0)),
                      "k2": float(rng.uniform(0.5, 2.0))}
        else:
            family = "bs"
            params = {"r": r, "k": float(rng.uniform(0.5, 2.0)),
                      "T": float(rng.uniform(0.05, 0.95))}
        argv = ["oracle", family]
        for key, value in params.items():
            argv += [f"--{key}", _r(value)]
        ops.append(argv + ["--out", "{out}"])
        expect.append({"family": family, **params})
    return Plan(
        workload="oracle-crosscheck",
        ops=ops,
        warmup=ops[0],
        out_suffix=".json",
        rows_per_op=1,
        expect=expect,
        size={"param_sets": n, "spec": "radius 6, 401x401 midpoint + 201x201 coarse"},
    )


def build(name: str, seed: int, work: Path, tiny: bool = False) -> Plan:
    """The plan of workload `name` for `seed`; `tiny` shrinks it for the self-check."""
    if name == "sweep-tmst-csv":
        return _sweep("tmst", seed, 41 if tiny else 1001, "csv", tiny)
    if name == "sweep-bs-json":
        return _sweep("bs", seed, 31 if tiny else 501, "json", tiny)
    if name == "analyze-files":
        return _analyze(seed, work, 60 if tiny else 1024)
    if name == "oracle-crosscheck":
        return _oracle(seed, 4 if tiny else 2048)
    raise ValueError(f"unknown workload {name!r}")
