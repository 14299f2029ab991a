"""Exact stdout and file bytes of the CLI, pinned against tests/golden_cli.json.

The other CLI tests compare parsed values; this one compares bytes, so any
change to token formatting, field order, separators or trailing newlines
fails here.  The expected bytes were written by this module's ``__main__``
entry point (``PYTHONPATH=src python tests/test_cli_golden.py``); rerun it
only when an output change is intended.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import gaussqt.cli as cli
import gaussqt.sweep as sweep

GOLDEN = Path(__file__).with_name("golden_cli.json")

# a rotated, asymmetric physical state and a sub-vacuum (unphysical) one
INPUTS = {
    "physical": [
        [4.51621356548123, 2.2084166993338488, -3.537080807296082, 3.8538117677063144],
        [2.2084166993338488, 18.231229368262397, 12.151540011888269, 6.011872159113218],
        [-3.537080807296082, 12.151540011888269, 15.380826652806446, 0.35378571427480465],
        [3.8538117677063144, 6.011872159113218, 0.35378571427480465, 4.7025169882446445],
    ],
    "unphysical": [
        [0.4, 0.0, 0.0, 0.0],
        [0.0, 0.4, 0.0, 0.0],
        [0.0, 0.0, 0.4, 0.0],
        [0.0, 0.0, 0.0, 0.4],
    ],
}

TMST = ["--r", "0.35", "--k1", "1.5", "--k2", "0.75"]
BS = ["--r", "0.5", "--k", "0.5", "--T", "0.3"]
CSV = ["--format", "csv"]

# "{in:NAME}" is replaced by the path of input NAME, "{out:NAME}" by a path
# whose bytes are pinned under NAME
CASES = {
    "analyze_physical_json": ["analyze", "{in:physical}"],
    "analyze_physical_csv": ["analyze", "{in:physical}", *CSV],
    "analyze_unphysical_json": ["analyze", "{in:unphysical}"],
    "analyze_unphysical_csv": ["analyze", "{in:unphysical}", *CSV],
    "state_tmst_json": ["state", "tmst", *TMST, "--emit-cm", "{out:cm.json}"],
    "state_tmst_csv": ["state", "tmst", *TMST, *CSV],
    "state_bs_json": ["state", "bs", *BS, "--emit-cm", "{out:cm.json}"],
    "state_bs_csv": ["state", "bs", *BS, *CSV],
    "thresholds_json": ["thresholds", "--k1", "1.5", "--k2", "0.75"],
    "thresholds_csv": ["thresholds", "--k1", "1.5", "--k2", "0.75", *CSV],
    "oracle_tmst_json": ["oracle", "tmst", *TMST],
    "oracle_tmst_csv": ["oracle", "tmst", *TMST, *CSV],
    "sweep_tmst_csv": ["sweep", "tmst", "--r", "0.48", "--k1", "0.5:1.5:3",
                       "--k2", "0.5:2.5:3"],
    "sweep_bs_json": ["sweep", "bs", "--r", "0.5", "--k", "0.5:1.5:3",
                      "--T", "0.25:0.75:3", "--format", "json"],
    "sweep_tmst_csv_file": ["sweep", "tmst", "--r", "0.48", "--k1", "0.5:1.5:3",
                            "--k2", "0.5:2.5:3", "--out", "{out:grid.csv}", "--quiet"],
    "sweep_bs_json_file": ["sweep", "bs", "--r", "0.5", "--k", "0.5:1.5:3",
                           "--T", "0.25:0.75:3", "--format", "json", "--out", "{out:grid.json}",
                           "--quiet"],
}


def run_case(argv: list[str], workdir: Path) -> dict:
    """Run one CLI invocation; return its exit code, stdout and output files."""
    outputs = {}
    resolved = []
    for token in argv:
        if token.startswith("{in:"):
            name = token[4:-1]
            path = workdir / f"{name}.json"
            path.write_text(json.dumps({"convention": "xpxp-vac-half",
                                        "matrix": INPUTS[name]}))
            resolved.append(str(path))
        elif token.startswith("{out:"):
            name = token[5:-1]
            outputs[name] = workdir / name
            resolved.append(str(outputs[name]))
        else:
            resolved.append(token)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(resolved)
    return {
        "exit": code,
        "stdout": stdout.getvalue(),
        "files": {name: p.read_bytes().decode("utf-8") for name, p in outputs.items()},
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_match_golden(name, tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run_case(CASES[name], tmp_path) == expected


@pytest.mark.parametrize("chunk", [1, 4])
def test_sweep_bytes_do_not_depend_on_chunk_size(chunk, tmp_path, monkeypatch):
    # 9-row grids: chunks of 1 and 4 rows meet inside the rows, so the row
    # separator between chunks is pinned too
    monkeypatch.setattr(sweep, "_CHUNK", chunk)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for name in (n for n in CASES if n.startswith("sweep_")):
        workdir = tmp_path / name
        workdir.mkdir()
        assert run_case(CASES[name], workdir) == golden[name], name


if __name__ == "__main__":
    import tempfile

    golden = {}
    for case, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            golden[case] = run_case(argv, Path(tmp))
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
