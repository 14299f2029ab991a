"""Command-line interface: subcommands, formats, and exit codes."""

import contextlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussqt.cli as cli
import gaussqt.core as core
import gaussqt.sampling as sampling
import gaussqt.sweep as sweep

VACUUM = 0.5 * np.eye(4)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- analyze


def test_analyze_vacuum(tmp_path, capsys):
    path = tmp_path / "vac.json"
    core.save_covmat(VACUUM, path)
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["classification"] == "Separable"
    assert doc["report"]["fidelity"] == 0.5
    assert doc["validity"]["physical"] is True
    assert doc["canonical"]["eta"] == 0.5
    assert doc["entanglement"]["simon_entangled"] is False


def test_analyze_csv_format(tmp_path, capsys):
    path = tmp_path / "vac.json"
    core.save_covmat(VACUUM, path)
    code, out, _ = run(capsys, "analyze", str(path), "--format", "csv")
    assert code == cli.EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "delta_epr,f_epr,det_m,fidelity,entangled,epr,qt,class"
    assert lines[1] == "2,0,4,0.5,0,0,0,Separable"


def test_analyze_unphysical_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    core.save_covmat(0.4 * np.eye(4), path)
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == cli.EXIT_UNPHYSICAL
    doc = json.loads(out)
    assert doc["classification"] == "Unphysical"
    assert doc["report"]["fidelity"] is None
    assert doc["canonical"] is None
    assert doc["entanglement"] is None
    code, out, _ = run(capsys, "analyze", str(path), "--format", "csv")
    assert code == cli.EXIT_UNPHYSICAL
    assert out.split("\n")[:2] == ["delta_epr,f_epr,det_m,fidelity,entangled,epr,qt,class",
                                   "null,null,null,null,0,0,0,Unphysical"]


def test_analyze_missing_file_exits_5(capsys):
    code, _, err = run(capsys, "analyze", "/no/such/file.json")
    assert code == cli.EXIT_IO
    assert "error" in err


def test_analyze_malformed_json_exits_3(tmp_path, capsys):
    path = tmp_path / "garbled.json"
    path.write_text('{"convention": "xxpp", "matrix": []}')
    code, _, err = run(capsys, "analyze", str(path))
    assert code == cli.EXIT_BAD_INPUT
    assert "convention" in err


def test_analyze_roundtrip_from_state(tmp_path, capsys):
    cm = tmp_path / "bs.json"
    code, _, _ = run(
        capsys, "state", "bs", "--r", "0.5", "--k", "0.5", "--T", "0.5",
        "--emit-cm", str(cm),
    )
    assert code == cli.EXIT_OK
    code, out, _ = run(capsys, "analyze", str(cm))
    assert code == cli.EXIT_OK
    assert json.loads(out)["classification"] == "EPRCorrelated"


def test_analyze_out_file(tmp_path, capsys):
    src = tmp_path / "vac.json"
    dst = tmp_path / "report.json"
    core.save_covmat(VACUUM, src)
    code, out, _ = run(capsys, "analyze", str(src), "--out", str(dst))
    assert code == cli.EXIT_OK
    assert json.loads(dst.read_text())["classification"] == "Separable"


@pytest.mark.parametrize("fmt, budget, physical", [
    ("json", 2, True), ("csv", 2, True), ("json", 1, False), ("csv", 1, False),
], ids=["json-2", "csv-2", "unphysical-json-1", "unphysical-csv-1"])
def test_analyze_spectrum_budget(tmp_path, capsys, monkeypatch, rng, fmt, budget, physical):
    path = tmp_path / "state.json"
    V = sampling.random_physical_covmats(rng, 1)[0] if physical else 0.4 * np.eye(4)
    core.save_covmat(V, path)
    calls = []
    real = core._sym_eigs
    monkeypatch.setattr(core, "_sym_eigs", lambda V: calls.append(1) or real(V))
    code, _, _ = run(capsys, "analyze", str(path), "--format", fmt)
    assert code == (cli.EXIT_OK if physical else cli.EXIT_UNPHYSICAL)
    assert len(calls) <= budget


# ------------------------------------------------------------------ state


def test_state_tmst_frozen(capsys):
    code, out, _ = run(
        capsys, "state", "tmst", "--r", "0.35", "--k1", "1.5", "--k2", "0.75"
    )
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["classification"] == "EntangledNoQT"
    assert abs(doc["report"]["delta_epr"] - 2.2346338670613424) < 1e-12
    assert abs(doc["report"]["det_m"] - 4.4830309970157254) < 1e-12


def test_state_bs_frozen(capsys):
    code, out, _ = run(
        capsys, "state", "bs", "--r", "0.5", "--k", "0.5", "--T", "0.5"
    )
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["classification"] == "EPRCorrelated"
    assert abs(doc["report"]["fidelity"] - 0.60459018294626854) < 1e-12


def test_state_rejects_bad_parameters(capsys):
    for argv in (
        ["state", "tmst", "--r", "-0.1", "--k1", "1.0", "--k2", "1.0"],
        ["state", "tmst", "--r", "0.5", "--k1", "0.3", "--k2", "1.0"],
        ["state", "bs", "--r", "0.5", "--k", "0.5", "--T", "1.5"],
        ["state", "bs", "--r", "0.5", "--k", "0.5", "--T", "0"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == cli.EXIT_BAD_INPUT
        assert "error" in err


def test_state_emit_cm_roundtrips(tmp_path, capsys):
    cm = tmp_path / "tmst.json"
    run(capsys, "state", "tmst", "--r", "0.48", "--k1", "1.5", "--k2", "0.75",
        "--emit-cm", str(cm))
    V = core.load_covmat(cm)
    nm, npl = core.symplectic_eigenvalues(V)
    assert abs(nm - 0.75) < 1e-10
    assert abs(npl - 1.5) < 1e-10


# ------------------------------------------------------------------ sweep


def test_sweep_stdout_csv(capsys):
    code, out, err = run(
        capsys, "sweep", "tmst", "--r", "0.48",
        "--k1", "0.5:1.5:2", "--k2", "0.5:2.5:3",
    )
    assert code == cli.EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "axis1,axis2,delta_epr,f_epr,det_m,fidelity,entangled,epr,qt,class"
    assert len(lines) == 7


def test_sweep_to_file_reports_rows(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    code, out, _ = run(
        capsys, "sweep", "tmst", "--r", "0.48",
        "--k1", "0.5:1.5:2", "--k2", "0.5:2.5:3", "--out", str(path),
    )
    assert code == cli.EXIT_OK
    assert "wrote 6 rows" in out
    assert path.read_text().count("\n") == 7
    code, out, _ = run(
        capsys, "sweep", "tmst", "--r", "0.48",
        "--k1", "0.5:1.5:2", "--k2", "0.5:2.5:3", "--out", str(path), "--quiet",
    )
    assert code == cli.EXIT_OK
    assert out == ""


def test_sweep_json_format(capsys):
    code, out, _ = run(
        capsys, "sweep", "bs", "--r", "0.5",
        "--k", "0.5:1.0:2", "--T", "0.25:0.75:3", "--format", "json",
    )
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["config"]["family"] == "bs"
    assert len(doc["rows"]) == 6


def test_sweep_grid_budget_exit_4(capsys):
    code, _, err = run(
        capsys, "sweep", "tmst", "--r", "0.1",
        "--k1", "0.5:1.0:3000", "--k2", "0.5:1.0:3000",
    )
    assert code == cli.EXIT_GRID_TOO_LARGE
    assert "exceeds" in err


def test_sweep_bad_axis_exit_3(capsys):
    code, _, err = run(
        capsys, "sweep", "tmst", "--r", "0.1",
        "--k1", "0.5:1.0", "--k2", "0.5:1.0:3",
    )
    assert code == cli.EXIT_BAD_INPUT
    code, _, err = run(
        capsys, "sweep", "tmst", "--r", "0.1",
        "--k1", "0.1:1.0:3", "--k2", "0.5:1.0:3",
    )
    assert code == cli.EXIT_BAD_INPUT


def test_sweep_unwritable_path_exit_5(capsys):
    code, _, err = run(
        capsys, "sweep", "tmst", "--r", "0.1",
        "--k1", "0.5:1.0:2", "--k2", "0.5:1.0:2",
        "--out", "/no-such-dir/grid.csv",
    )
    assert code == cli.EXIT_IO


def test_sweep_deterministic(capsys):
    argv = ["sweep", "tmst", "--r", "0.48", "--k1", "0.5:1.5:3", "--k2", "0.5:2.5:3"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


# ------------------------------------------------------------- thresholds


def test_thresholds_json(capsys):
    code, out, _ = run(capsys, "thresholds", "--k1", "1.5", "--k2", "0.75")
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert abs(doc["r_ent"] - 0.32745015023725849) < 1e-15
    assert abs(doc["r_qt"] - 0.40546510810816438) < 1e-15
    assert abs(doc["difference"] - 0.078014957870905899) < 1e-15


def test_thresholds_csv(capsys):
    code, out, _ = run(capsys, "thresholds", "--k1", "1", "--k2", "1", "--format", "csv")
    assert code == cli.EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "k1,k2,r_ent,r_qt,difference"
    parts = lines[1].split(",")
    assert float(parts[2]) == float(parts[3])  # symmetric input: thresholds coincide
    assert float(parts[4]) == 0.0


def test_thresholds_bad_input_exit_3(capsys):
    code, _, err = run(capsys, "thresholds", "--k1", "0.2", "--k2", "1.0")
    assert code == cli.EXIT_BAD_INPUT


# ----------------------------------------------------------------- oracle


def test_oracle_agrees_at_defaults(capsys):
    code, out, _ = run(
        capsys, "oracle", "tmst", "--r", "0.5", "--k1", "0.5", "--k2", "0.5"
    )
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert abs(doc["closed_form"] - 0.73105857863000501) < 1e-12
    assert doc["abs_difference"] < 1e-10
    assert doc["warning"] is False


def test_oracle_under_resolved_exit_6(capsys):
    code, out, _ = run(
        capsys, "oracle", "tmst", "--r", "0.5", "--k1", "0.5", "--k2", "0.5",
        "--radius", "1.0",
    )
    assert code == cli.EXIT_ORACLE_DISAGREEMENT
    doc = json.loads(out)  # both values still reported on disagreement
    assert doc["warning"] is True
    assert doc["est_error"] > 1e-3
    assert "closed_form" in doc and "quadrature" in doc


def test_oracle_csv_format(capsys):
    code, out, _ = run(
        capsys, "oracle", "bs", "--r", "0.5", "--k", "0.5", "--T", "0.3",
        "--format", "csv",
    )
    assert code == cli.EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "closed_form,quadrature,abs_difference,est_error,warning"
    assert abs(float(lines[1].split(",")[0]) - 0.5883843994197081) < 1e-12


def test_oracle_bad_spec_exit_3(capsys):
    code, _, err = run(
        capsys, "oracle", "tmst", "--r", "0.5", "--k1", "0.5", "--k2", "0.5",
        "--points", "10",
    )
    assert code == cli.EXIT_BAD_INPUT


def _address_space_1gib():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_oracle_grid_budget_exit_4_with_one_line():
    # 100001^2 nodes would be ~80 GB per array: the child's address space is
    # capped at 1 GiB so a missing budget check fails with MemoryError (exit
    # 1), never by filling the machine's memory; BLAS runs one thread so its
    # per-thread stacks and arenas fit under the cap on any core count
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "gaussqt", "oracle", "tmst", "--r", "0.5", "--k1", "0.5",
         "--k2", "0.5", "--points", "100001"],
        capture_output=True, text=True, env=env, preexec_fn=_address_space_1gib,
    )
    assert proc.returncode == cli.EXIT_GRID_TOO_LARGE
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "exceeds the 4000000 point budget" in lines[0]


# ------------------------------------------------------------- plumbing


def test_usage_errors_exit_3(capsys):
    assert run(capsys, "bogus-command")[0] == cli.EXIT_BAD_INPUT
    assert run(capsys, "state", "tmst", "--r", "0.5")[0] == cli.EXIT_BAD_INPUT
    assert run(capsys, "state", "tmst", "--r", "abc", "--k1", "1", "--k2", "1")[0] \
        == cli.EXIT_BAD_INPUT
    assert run(capsys)[0] == cli.EXIT_BAD_INPUT
    code, out, err = run(capsys, "analyze", "state.json", "--quiet")  # a sweep-only flag
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    code, out, err = run(capsys, "oracle", "tmst", "--r", "0.5", "--k1", "1", "--k2", "1",
                         "--rule", "midpoint")  # midpoint is the one rule
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gaussqt", "thresholds", "--k1", "1", "--k2", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["r_ent"] == json.loads(proc.stdout)["r_qt"]


def test_analyze_random_states_consistent(tmp_path, capsys, rng):
    for i, V in enumerate(sampling.random_physical_covmats(rng, 5)):
        path = tmp_path / f"s{i}.json"
        core.save_covmat(V, path)
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        rep = doc["report"]
        assert rep["qt"] == (rep["det_m"] < 4.0)
        assert rep["epr_correlated"] == (rep["delta_epr"] < 2.0)
        assert doc["validity"]["physical"] is True


# ------------------------------------------------------- edges of the domain


@pytest.mark.parametrize("argv, named", [
    (["state", "tmst", "--r", "400", "--k1", "1", "--k2", "1"], "r"),
    (["sweep", "tmst", "--r", "400", "--k1", "0.5:1:3", "--k2", "0.5:1:3"], "r"),
    (["sweep", "bs", "--r", "0.5", "--k", "0.5:1e308:3", "--T", "0.1:0.9:3"], "k"),
    (["oracle", "tmst", "--r", "0.5", "--k1", "1", "--k2", "1", "--radius", "1e308",
      "--points", "51"], "quadrature"),
    (["thresholds", "--k1", "1e308", "--k2", "1e308"], "k1"),
    # physical, but its EPR sum and det M overflow
    (["analyze", "{near_float_range}"], "entries"),
    (["analyze", "{near_float_range}", "--format", "csv"], "entries"),
    # node squares and weights overflow, not only the quadratic form
    (["oracle", "tmst", "--r", "0.5", "--k1", "0.5", "--k2", "0.5", "--radius", "1e155"],
     "quadrature"),
    (["oracle", "tmst", "--r", "0.5", "--k1", "0.5", "--k2", "0.5", "--radius", "1e200"],
     "quadrature"),
])
def test_domain_edges_exit_3_with_one_line(argv, named, tmp_path):
    path = tmp_path / "near_float_range.json"
    path.write_text(json.dumps({"convention": "xpxp-vac-half",
                                "matrix": np.diag([1e308, 1e308, 1.0, 1.0]).tolist()}))
    argv = [str(path) if a == "{near_float_range}" else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "gaussqt", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_BAD_INPUT
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert named in lines[0]


# each family's domain is checked once, by its constructor: state and oracle
# call it on the state, sweep on the grid's corners, so all three exit 3 with
# one line naming the parameter.  Each parameter as (scalar, sweep axis)
IN_DOMAIN = {"tmst": {"r": ("0.5", "0.5"), "k1": ("1", "1:2:{n}"), "k2": ("1", "1:2:{n}")},
             "bs": {"r": ("0.5", "0.5"), "k": ("1", "1:2:{n}"), "T": ("0.5", "0.1:0.9:{n}")}}
# out-of-domain values; a sweep axis holds the value at one of its ends
DOMAIN_EDGES = [
    ("tmst", "k1", ("0.4", "0.4:2:{n}")), ("tmst", "k2", ("0.4", "0.4:2:{n}")),
    ("bs", "k", ("0.4", "0.4:2:{n}")), ("bs", "T", ("0", "0:0.9:{n}")),
    ("bs", "T", ("1", "0.1:1:{n}")), ("tmst", "r", ("-1", "-1")), ("tmst", "r", ("nan", "nan")),
    ("bs", "r", ("-1", "-1")), ("bs", "r", ("nan", "nan")),
]


def _family_argv(command, family, name, value, n=3):
    argv = [command, family]
    for key, (scalar, axis) in dict(IN_DOMAIN[family], **{name: value}).items():
        argv += [f"--{key}", axis.format(n=n) if command == "sweep" else scalar]
    return argv


@pytest.mark.parametrize("command", ["state", "oracle", "sweep"])
@pytest.mark.parametrize("family, name, value", DOMAIN_EDGES)
def test_out_of_domain_parameters_exit_3_with_one_line(capsys, command, family, name, value):
    code, out, err = run(capsys, *_family_argv(command, family, name, value))
    assert (code, out) == (cli.EXIT_BAD_INPUT, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert re.search(rf"\b{name}\b", lines[0].removeprefix("error: ")), lines[0]


@pytest.mark.parametrize("family, name, value", [e for e in DOMAIN_EDGES if e[1] != "r"])
def test_sweep_checks_the_domain_before_the_point_budget(capsys, family, name, value):
    # 2001^2 points exceed the 4,000,000-point budget: an out-of-domain axis
    # exits 3, the same grid in domain exits 4
    code, _, err = run(capsys, *_family_argv("sweep", family, name, value, n=2001))
    assert code == cli.EXIT_BAD_INPUT and "budget" not in err
    in_domain = IN_DOMAIN[family][name]
    code, _, err = run(capsys, *_family_argv("sweep", family, name, in_domain, n=2001))
    assert code == cli.EXIT_GRID_TOO_LARGE and "budget" in err


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_sweep_failing_past_the_first_chunk_writes_nothing(to_file, tmp_path, capsys,
                                                           monkeypatch):
    # with 3-row chunks only the rows from the second chunk on (k1 >= 2e6)
    # have entries beyond core.MAX_ENTRY at r = 80
    monkeypatch.setattr(sweep, "_CHUNK", 3)
    path = tmp_path / "grid.csv"
    out_flags = ["--out", str(path)] if to_file else []
    code, out, err = run(capsys, "sweep", "tmst", "--r", "80",
                         "--k1", "0.5:4e6:3", "--k2", "0.5:1:3", *out_flags)
    assert code == cli.EXIT_BAD_INPUT
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not path.exists()


EDGE_FLOATS = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, 0.0]),
    st.floats(-3.0, 3.0),
)


@st.composite
def cli_argv(draw):
    """argv for any subcommand with float flags drawn from EDGE_FLOATS;
    sweep steps and quadrature points stay fixed and small."""
    def f() -> str:
        return repr(draw(EDGE_FLOATS))

    fmt = ["--format", draw(st.sampled_from(["json", "csv"]))]
    family = draw(st.sampled_from(["tmst", "bs"]))
    params = (["--r", f(), "--k1", f(), "--k2", f()] if family == "tmst"
              else ["--r", f(), "--k", f(), "--T", f()])
    command = draw(st.sampled_from(["analyze", "state", "sweep", "thresholds", "oracle"]))
    if command == "analyze":
        return ["analyze", "{matrix}", *fmt], [draw(EDGE_FLOATS) for _ in range(10)]
    if command == "state":
        return ["state", family, *params, *fmt], None
    if command == "sweep":
        axes = ["--k1", "--k2"] if family == "tmst" else ["--k", "--T"]
        return ["sweep", family, "--r", f(), axes[0], f"{f()}:{f()}:3",
                axes[1], f"{f()}:{f()}:3", *fmt], None
    if command == "thresholds":
        return ["thresholds", "--k1", f(), "--k2", f(), *fmt], None
    return ["oracle", family, *params, "--radius", f(), "--points", "51", *fmt], None


@given(case=cli_argv())
@settings(max_examples=300, deadline=None)
def test_cli_edges_exit_with_documented_codes(case):
    argv, entries = case
    with tempfile.TemporaryDirectory() as tmp:
        if entries is not None:
            # a symmetric matrix from ten drawn entries; json writes NaN/Infinity
            iu = np.triu_indices(4)
            M = np.zeros((4, 4))
            M[iu] = entries
            M = M + np.triu(M, 1).T
            path = Path(tmp) / "m.json"
            path.write_text(json.dumps({"convention": "xpxp-vac-half", "matrix": M.tolist()}))
            argv = [str(path) if a == "{matrix}" else a for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in {0, 2, 3, 4, 5, 6}
    assert "Traceback" not in err.getvalue()
