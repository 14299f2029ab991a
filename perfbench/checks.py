"""Output checks.  An op fails when any check on its exit code or output
fails; failed ops over attempted ops is the workload's error rate.

Sweeps: exit code 0, header, row count = steps^2, axis values in row order,
over every row EPR => qt, qt <=> fidelity > 1/2, f_epr = max(0, 2 - delta) and
a label that matches the flags, and on a seeded sample of rows the values of
`criteria.classify` on the state rebuilt with `resources`.  analyze: the exit
code the input calls for, ground truth by construction, and agreement with
`criteria.classify`.  oracle: exit 0, quadrature within 1e-5 of the closed
form, and for a TMST a closed form equal to `detm_values` on its standard-form
parameters.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REL_TOL = 1e-12        # floats that two routes compute; also an absolute floor
GUARD_BAND = 1e-10     # |nu~_- - 1/2| within which the entangled flag may differ
SAMPLE_ROWS = 256
BLOCK = 1 << 16
CSV_HEADER = b"axis1,axis2,delta_epr,f_epr,det_m,fidelity,entangled,epr,qt,class\n"
FLOAT_KEYS = ("axis1", "axis2", "delta_epr", "f_epr", "det_m", "fidelity")
FLAG_KEYS = ("entangled", "epr", "qt")


def close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def label_of(entangled, epr, qt):
    """The region label the flags imply (vectorised)."""
    return np.where(~entangled, "Separable",
                    np.where(epr, "EPRCorrelated",
                             np.where(qt, "QTNoEPR", "EntangledNoQT")))


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Malformed(Exception):
    pass


@dataclass
class Block:
    offset: int
    floats: np.ndarray      # (6, n) in FLOAT_KEYS order
    flags: np.ndarray       # (3, n) bool in FLAG_KEYS order
    valid: np.ndarray       # (n,) row parsed with the right fields and tokens
    labels: np.ndarray      # (n,) str


def _to_floats(values) -> np.ndarray:
    try:
        return np.asarray(values).astype(np.float64)
    except (ValueError, TypeError):
        out = np.empty(len(values))
        for i, v in enumerate(values):
            try:
                out[i] = float(v)
            except (ValueError, TypeError):
                out[i] = math.nan
        return out


def _csv_fields(lines: list) -> tuple[list, np.ndarray]:
    """Columns of a block of CSV lines, and which rows had ten fields."""
    n = len(lines)
    tokens = b"".join(lines).replace(b"\n", b",").split(b",")[:-1]
    if len(tokens) == 10 * n and lines[-1].endswith(b"\n"):
        return [tokens[k::10] for k in range(10)], np.ones(n, dtype=bool)
    # some row is malformed: split line by line to find it
    fields = [line.rstrip(b"\n").split(b",") for line in lines]
    valid = np.array([len(f) == 10 and line.endswith(b"\n") for f, line in zip(fields, lines)])
    fields = [f if len(f) == 10 else [b"nan"] * 9 + [b""] for f in fields]
    return [list(col) for col in zip(*fields)], valid


def _csv_blocks(path: Path, expect):
    with open(path, "rb") as fh:
        if fh.readline() != CSV_HEADER:
            raise Malformed("bad CSV header")
        offset = 0
        while True:
            lines = fh.readlines(BLOCK * 110)
            if not lines:
                return
            cols, valid = _csv_fields(lines)
            floats = np.stack([_to_floats(cols[k]) for k in range(6)])
            tokens = [np.asarray(cols[k]) for k in range(6, 9)]
            valid &= np.all([(t == b"0") | (t == b"1") for t in tokens], axis=0)
            flags = np.stack([t == b"1" for t in tokens])
            labels = np.char.decode(np.asarray(cols[9]), "ascii", "replace")
            yield Block(offset, floats, flags, valid, labels)
            offset += len(lines)


def _json_blocks(path: Path, expect):
    family, r, axes, names = expect["family"], expect["r"], expect["axes"], expect["names"]
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline() != "{\n":
            raise Malformed("JSON grid does not open with {")
        line = fh.readline()
        if not (line.startswith('  "config": ') and line.endswith("},\n")):
            raise Malformed("bad JSON config line")
        cfg = json.loads(line[len('  "config": '):-2])
        want = {"family": family, "fixed": {"r": r}}
        for k, (lo, hi, steps) in enumerate(axes):
            want[f"axis{k + 1}"] = {"name": names[k], "min": lo, "max": hi, "steps": steps}
        if cfg != want:
            raise Malformed(f"JSON config {cfg} != {want}")
        if fh.readline() != '  "rows": [\n':
            raise Malformed('bad JSON "rows" line')
        offset = 0
        last = False
        while not last:
            rows = []
            for _ in range(BLOCK):
                line = fh.readline()
                if line == "  ]\n":
                    last = True
                    break
                if not line:
                    raise Malformed("JSON grid ends inside the rows")
                rows.append(line)
            if not rows:
                break
            parsed, valid = [], []
            for i, line in enumerate(rows):
                is_last = last and i == len(rows) - 1
                body = line.strip()
                ok = body.endswith("}") if is_last else body.endswith("},")
                try:
                    row = json.loads(body if is_last or not ok else body[:-1])
                    ok = ok and list(row) == [*FLOAT_KEYS, *FLAG_KEYS, "class"]
                    ok = ok and all(isinstance(row[k], bool) for k in FLAG_KEYS)
                except (ValueError, TypeError):
                    ok, row = False, None
                if not ok:
                    row = dict.fromkeys(FLOAT_KEYS, math.nan) | dict.fromkeys(FLAG_KEYS, False)
                    row["class"] = ""
                parsed.append(row)
                valid.append(ok)
            floats = np.stack([_to_floats([row[k] for row in parsed]) for k in FLOAT_KEYS])
            flags = np.array([[row[k] for row in parsed] for k in FLAG_KEYS], dtype=bool)
            labels = np.array([str(row["class"]) for row in parsed])
            yield Block(offset, floats, flags, np.array(valid), labels)
            offset += len(rows)
        if fh.read() != "}\n":
            raise Malformed("JSON grid does not close with }")


def _bad_rows(block: Block, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    a1, a2, delta, f_epr, _det_m, fidelity = block.floats
    entangled, epr, qt = block.flags
    g = block.offset + np.arange(a1.size)
    with np.errstate(invalid="ignore"):
        ok = block.valid & (g < v1.size * v2.size)
        g_in = np.minimum(g, v1.size * v2.size - 1)
        ok &= (a1 == v1[g_in // v2.size]) & (a2 == v2[g_in % v2.size])
        ok &= block.labels == label_of(entangled, epr, qt)
        ok &= ~epr | qt
        ok &= qt == (fidelity > 0.5)
        ok &= f_epr == np.maximum(0.0, 2.0 - delta)
    return g[~ok]


def _sample_ok(family: str, r: float, floats, flags, label: str) -> bool:
    from gaussqt import core, criteria, resources

    a1, a2, delta, f_epr, det_m, fidelity = (float(x) for x in floats)
    entangled, epr, qt = (bool(x) for x in flags)
    if family == "tmst":
        V = resources.tmst(resources.TmstSpec(r=r, k1=a1, k2=a2))
    else:
        V = resources.bs_resource(resources.BsSpec(r=r, k=a1, T=a2))
    rep, want = criteria.classify(V)
    ok = (close(delta, rep.delta_epr) and close(f_epr, rep.f_epr)
          and close(det_m, rep.det_m) and close(fidelity, rep.fidelity)
          and epr == rep.epr_correlated and qt == rep.qt)
    if entangled != rep.entangled or label != want.value:
        ok = ok and entangled != rep.entangled and abs(core.ppt_nu_minus(V) - 0.5) <= GUARD_BAND
    return ok


def check_sweep(path: Path, expect: dict, rng: np.random.Generator) -> list[str]:
    """Problems found in one sweep output; empty when it is correct."""
    (lo1, hi1, s1), (lo2, hi2, s2) = expect["axes"]
    v1, v2 = np.linspace(lo1, hi1, s1), np.linspace(lo2, hi2, s2)
    n_rows = s1 * s2
    sample = np.sort(rng.choice(n_rows, size=min(SAMPLE_ROWS, n_rows), replace=False))
    blocks = _csv_blocks if expect["fmt"] == "csv" else _json_blocks
    bad: list[int] = []
    seen = 0
    sampled_bad = 0
    try:
        for block in blocks(path, expect):
            bad.extend(_bad_rows(block, v1, v2).tolist())
            n = block.floats.shape[1]
            lo, hi = np.searchsorted(sample, [block.offset, block.offset + n])
            for g in sample[lo:hi]:
                j = g - block.offset
                if not _sample_ok(expect["family"], expect["r"], block.floats[:, j],
                                  block.flags[:, j], str(block.labels[j])):
                    sampled_bad += 1
                    bad.append(int(g))
            seen += n
    except (Malformed, ValueError, OSError) as exc:
        return [f"{path.name}: {exc}"]
    problems = []
    if seen != n_rows:
        problems.append(f"{path.name}: {seen} rows, expected {n_rows}")
    bad_rows = sorted(set(bad))
    if bad_rows:
        problems.append(f"{path.name}: {len(bad_rows)} bad rows (first {bad_rows[:5]}), "
                        f"{sampled_bad} of them in the classify sample")
    return problems


def _report_problems(obj: dict, V: np.ndarray) -> list[str]:
    from gaussqt import criteria

    rep, label = obj["report"], obj["classification"]
    d, f_epr, det_m, fid = rep["delta_epr"], rep["f_epr"], rep["det_m"], rep["fidelity"]
    ent, epr, qt = rep["entangled"], rep["epr_correlated"], rep["qt"]
    problems = []
    if label != str(label_of(np.bool_(ent), np.bool_(epr), np.bool_(qt))):
        problems.append(f"label {label} does not match the flags")
    if (epr and not qt) or qt != (fid > 0.5) or f_epr != max(0.0, 2.0 - d):
        problems.append("report breaks EPR => qt, qt <=> F > 1/2 or f_epr = max(0, 2 - delta)")
    want, want_label = criteria.classify(V)
    if not (close(d, want.delta_epr) and close(f_epr, want.f_epr)
            and close(det_m, want.det_m) and close(fid, want.fidelity)
            and (ent, epr, qt) == (want.entangled, want.epr_correlated, want.qt)
            and label == want_label.value):
        problems.append("report differs from criteria.classify")
    return problems


def check_analyze(text: str, code: int, case: dict) -> list[str]:
    unphysical = case["kind"] == "unphysical"
    want_code = 2 if unphysical else 0
    if code != want_code:
        return [f"exit {code}, expected {want_code}"]
    try:
        obj = json.loads(text)
        if unphysical:
            if (obj["classification"] != "Unphysical" or obj["validity"]["physical"]
                    or obj["canonical"] is not None or obj["entanglement"] is not None):
                return ["unphysical input not reported as Unphysical"]
            return []
        problems = _report_problems(obj, case["V"])
        label, ent = obj["classification"], obj["report"]["entangled"]
        if not obj["validity"]["physical"] or obj["entanglement"]["ppt_entangled"] != ent:
            problems.append("validity or entanglement block disagrees with the report")
        if case["kind"] == "separable" and label != "Separable":
            problems.append(f"separable input classified {label}")
        if case["kind"] == "rotated_tmst" and ent != case["entangled"]:
            problems.append(f"rotated TMST entangled={ent}, threshold says {case['entangled']}")
        return problems
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]


def check_oracle(text: str, code: int, case: dict) -> list[str]:
    from gaussqt import criteria, resources

    if code != 0:
        return [f"exit {code}, expected 0"]
    try:
        obj = json.loads(text)
        closed, quad = obj["closed_form"], obj["quadrature"]
        problems = []
        if obj["warning"] is not False or obj["abs_difference"] != abs(closed - quad):
            problems.append("warning set or abs_difference != |closed - quadrature|")
        if not obj["abs_difference"] < 1e-5:
            problems.append(f"quadrature differs by {obj['abs_difference']}")
        r = case["r"]
        if case["family"] == "tmst":
            # the TMST is in standard form; its parameters written out
            # independently of resources.py
            ch, sh = math.cosh(r), math.sinh(r)
            k1, k2 = case["k1"], case["k2"]
            c = ch * sh * (k1 + k2)
            want = 1.0 / math.sqrt(criteria.detm_values(
                ch * ch * k1 + sh * sh * k2, sh * sh * k1 + ch * ch * k2, c, c))
        else:
            # det M is not invariant under local rotations, so a beam-splitter
            # state has no standard-form route; the quadrature above is its
            # independent check
            want = criteria.fidelity(resources.bs_resource(
                resources.BsSpec(r=r, k=case["k"], T=case["T"])))
        if not close(closed, want):
            problems.append(f"closed form {closed} != reference {want}")
        return problems
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable result: {exc!r}"]


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)   # op template index -> sha256 of its output


def check_pass(plan, result: dict, out_dir: Path, rng: np.random.Generator) -> Verdict:
    """Check every op of one worker pass.  The first output of each argv is
    checked in full; a repeat of the same argv must be byte-identical to it."""
    v = Verdict()
    codes = {}
    for i, _latency, code in result["ops"]:
        j = i % len(plan.ops)
        path = out_dir / f"op-{i:06d}{plan.out_suffix}"
        v.attempted += 1
        if not path.exists():
            problems = [f"op {i}: exit {code}, no output"]
        elif j in v.digests:
            same = code == codes[j] and sha256(path) == v.digests[j]
            problems = [] if same else [f"op {i}: exit code or output differs from a repeat"]
        else:
            digest = sha256(path)
            expect = plan.expect[j]
            if plan.workload.startswith("sweep"):
                problems = [f"exit {code}"] if code != 0 else check_sweep(path, expect, rng)
            else:
                text = path.read_text(encoding="utf-8")
                check = check_analyze if plan.workload == "analyze-files" else check_oracle
                problems = [f"op {i}: {p}" for p in check(text, code, expect)]
            if not problems:
                v.digests[j], codes[j] = digest, code
        if problems:
            v.failed += 1
            v.problems.extend(problems)
    return v
