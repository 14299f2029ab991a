"""Parameter-plane sweeps: grid order, file formats, region coherence."""

import collections
import dataclasses
import hashlib
import json
import os
import stat
import tracemalloc

import numpy as np
import pytest

import gaussqt.cli as cli
import gaussqt.core as core
import gaussqt.criteria as criteria
import gaussqt.resources as resources
import gaussqt.sweep as sweep
from gaussqt.errors import GridSizeError, InvalidInput
from conftest import beam_splitter_product, reference_rows

HEADER = "axis1,axis2,delta_epr,f_epr,det_m,fidelity,entangled,epr,qt,class"


def tiny_tmst(steps1=2, steps2=3):
    return sweep.SweepConfig(
        family="tmst",
        r=0.48,
        axis1=sweep.AxisSpec("k1", 0.5, 1.5, steps1),
        axis2=sweep.AxisSpec("k2", 0.5, 2.5, steps2),
    )


def columns(config):
    """The sweep's column arrays: its chunks concatenated, by column name."""
    chunks = list(sweep.run_sweep(config))
    return {name: np.concatenate([chunk[name] for chunk in chunks]) for name in chunks[0]}


def text(config, fmt="csv"):
    return "".join(sweep.text(config, fmt))


# ------------------------------------------------------------ validation


def test_axis_spec_validation():
    with pytest.raises(InvalidInput):
        sweep.AxisSpec("k1", 1.0, 1.0, 5)
    with pytest.raises(InvalidInput):
        sweep.AxisSpec("k1", 2.0, 1.0, 5)
    with pytest.raises(InvalidInput):
        sweep.AxisSpec("k1", 0.5, float("inf"), 5)
    with pytest.raises(InvalidInput):
        sweep.AxisSpec("k1", 0.5, 1.0, 1)
    a = sweep.AxisSpec("k1", 0.5, 1.0, 6)
    assert np.array_equal(a.values(), np.linspace(0.5, 1.0, 6))


def test_sweep_config_validation():
    ax = sweep.AxisSpec("k1", 0.5, 1.0, 3)
    ax2 = sweep.AxisSpec("k2", 0.5, 1.0, 3)
    with pytest.raises(InvalidInput):
        sweep.SweepConfig(family="other", r=0.1, axis1=ax, axis2=ax2)
    with pytest.raises(InvalidInput):
        sweep.SweepConfig(family="tmst", r=float("inf"), axis1=ax, axis2=ax2)
    with pytest.raises(InvalidInput):
        sweep.SweepConfig(family="tmst", r=-0.5, axis1=ax, axis2=ax2)
    with pytest.raises(InvalidInput):  # axis names must match the family
        sweep.SweepConfig(family="tmst", r=0.1, axis1=ax2, axis2=ax)
    with pytest.raises(InvalidInput):  # k axis below the thermal floor
        sweep.SweepConfig(
            family="tmst",
            r=0.1,
            axis1=sweep.AxisSpec("k1", 0.3, 1.0, 3),
            axis2=ax2,
        )
    with pytest.raises(InvalidInput):  # T axis must stay inside (0, 1)
        sweep.SweepConfig(
            family="bs",
            r=0.1,
            axis1=sweep.AxisSpec("k", 0.5, 1.0, 3),
            axis2=sweep.AxisSpec("T", 0.0, 0.9, 3),
        )
    with pytest.raises(InvalidInput, match="format"):  # checked before the first piece
        next(sweep.text(sweep.SweepConfig(family="tmst", r=0.1, axis1=ax, axis2=ax2), "yaml"))


def test_sweep_config_is_frozen_and_hashable():
    c = sweep.SweepConfig(family="tmst", r=0.48, axis1=sweep.AxisSpec("k1", 0.5, 1.5, 3),
                          axis2=sweep.AxisSpec("k2", 0.5, 2.5, 3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.r = 400  # validated once: the grid's corner check stays true
    assert c == tiny_tmst(3, 3)
    assert hash(c) == hash(tiny_tmst(3, 3))
    assert len({c, tiny_tmst(3, 3), tiny_tmst(2, 3)}) == 2
    assert [f.name for f in dataclasses.fields(c)] == ["family", "r", "axis1", "axis2"]


def test_grid_budget_enforced():
    with pytest.raises(GridSizeError):
        sweep.SweepConfig(
            family="tmst",
            r=0.1,
            axis1=sweep.AxisSpec("k1", 0.5, 1.0, 3000),
            axis2=sweep.AxisSpec("k2", 0.5, 1.0, 3000),
        )
    cfg = sweep.SweepConfig(
        family="tmst",
        r=0.1,
        axis1=sweep.AxisSpec("k1", 0.5, 1.0, 2000),
        axis2=sweep.AxisSpec("k2", 0.5, 1.0, 2000),
    )
    assert cfg.size == 4_000_000
    # the corner check runs first: a grid over budget whose corners pass
    # core.MAX_ENTRY is bad input, not a budget error
    with pytest.raises(InvalidInput, match="entries") as exc:
        sweep.SweepConfig(
            family="tmst",
            r=80,
            axis1=sweep.AxisSpec("k1", 0.5, 4e6, 3000),
            axis2=sweep.AxisSpec("k2", 0.5, 1.0, 3000),
        )
    assert not isinstance(exc.value, GridSizeError)


# ------------------------------------------------------------- evaluation


def test_run_sweep_row_order_and_values():
    grid = columns(tiny_tmst())
    assert grid["axis1"].size == 6
    k1s = np.linspace(0.5, 1.5, 2)
    k2s = np.linspace(0.5, 2.5, 3)
    want1 = np.repeat(k1s, 3)
    want2 = np.tile(k2s, 2)
    assert np.array_equal(grid["axis1"], want1)
    assert np.array_equal(grid["axis2"], want2)
    for i in range(6):
        V = resources.tmst_covmat(0.48, grid["axis1"][i], grid["axis2"][i])
        rep, lab = criteria.classify(V)
        assert abs(grid["delta_epr"][i] - rep.delta_epr) < 1e-12
        assert abs(grid["det_m"][i] - rep.det_m) < 1e-12
        assert abs(grid["fidelity"][i] - rep.fidelity) < 1e-12
        assert abs(grid["f_epr"][i] - rep.f_epr) < 1e-12
        assert grid["entangled"][i] == rep.entangled
        assert grid["epr"][i] == rep.epr_correlated
        assert grid["qt"][i] == rep.qt
        assert criteria.LABELS[grid["class"][i]] == lab.value


def test_run_sweep_bs_family():
    cfg = sweep.SweepConfig(
        family="bs",
        r=0.5,
        axis1=sweep.AxisSpec("k", 0.5, 1.0, 3),
        axis2=sweep.AxisSpec("T", 0.25, 0.75, 3),
    )
    grid = columns(cfg)
    assert grid["axis1"].size == 9
    for i in range(9):
        V = resources.bs_covmat(0.5, grid["axis1"][i], grid["axis2"][i])
        rep, _ = criteria.classify(V)
        assert abs(grid["fidelity"][i] - rep.fidelity) < 1e-12


def test_run_sweep_chunking_is_invisible(monkeypatch):
    cfg = tiny_tmst(5, 5)
    whole = columns(cfg)
    monkeypatch.setattr(sweep, "_CHUNK", 7)
    chunked = columns(cfg)
    assert np.array_equal(whole["delta_epr"], chunked["delta_epr"])
    assert np.array_equal(whole["fidelity"], chunked["fidelity"])
    assert np.array_equal(whole["entangled"], chunked["entangled"])
    assert np.array_equal(criteria.LABELS[whole["class"]], criteria.LABELS[chunked["class"]])


def test_region_structure_on_coarse_grids():
    tm = sweep.SweepConfig(
        family="tmst",
        r=0.48,
        axis1=sweep.AxisSpec("k1", 0.5, 2.5, 31),
        axis2=sweep.AxisSpec("k2", 0.5, 2.5, 31),
    )
    g = columns(tm)
    assert np.all(~g["qt"] | g["entangled"])  # teleportation only inside entanglement
    assert np.all(~g["epr"] | g["qt"])  # EPR correlation only inside teleportation
    assert g["qt"].any() and (~g["qt"] & g["entangled"]).any()
    bsc = sweep.SweepConfig(
        family="bs",
        r=0.5,
        axis1=sweep.AxisSpec("k", 0.5, 2.0, 31),
        axis2=sweep.AxisSpec("T", 0.05, 0.95, 31),
    )
    h = columns(bsc)
    assert np.all(~h["qt"] | h["entangled"])
    assert np.all(~h["epr"] | h["qt"])
    assert (h["qt"] & ~h["epr"]).any()


# ---------------------------------------------------------------- output


def test_csv_layout():
    lines = text(tiny_tmst()).strip().split("\n")
    assert lines[0] == HEADER
    assert len(lines) == 7
    first = lines[1].split(",")
    assert len(first) == 10
    assert first[0] == "0.5"
    assert first[6] in ("0", "1")
    assert first[9] in ("Separable", "EntangledNoQT", "QTNoEPR", "EPRCorrelated")


def test_csv_floats_roundtrip():
    grid = columns(tiny_tmst())
    lines = text(tiny_tmst()).strip().split("\n")[1:]
    for i, line in enumerate(lines):
        parts = line.split(",")
        assert float(parts[2]) == grid["delta_epr"][i]
        assert float(parts[5]) == grid["fidelity"][i]


def test_json_layout():
    grid = columns(tiny_tmst())
    doc = json.loads(text(tiny_tmst(), "json"))
    assert doc["config"]["family"] == "tmst"
    assert doc["config"]["fixed"] == {"r": 0.48}
    assert doc["config"]["axis1"] == {"name": "k1", "min": 0.5, "max": 1.5, "steps": 2}
    assert doc["config"]["axis2"] == {"name": "k2", "min": 0.5, "max": 2.5, "steps": 3}
    rows = doc["rows"]
    assert len(rows) == 6
    assert isinstance(rows[0]["entangled"], bool)
    assert rows[0]["class"] in ("Separable", "EntangledNoQT", "QTNoEPR", "EPRCorrelated")
    assert rows[0]["delta_epr"] == grid["delta_epr"][0]


@pytest.mark.parametrize("chunk", [sweep._CHUNK, 1000])
@pytest.mark.parametrize("family, fmt, steps", [("tmst", "csv", 201), ("bs", "json", 101)])
def test_text_matches_the_reference_writer(monkeypatch, chunk, family, fmt, steps):
    # 1000-row chunks end mid-axis, so rows of one axis1 value straddle them
    monkeypatch.setattr(sweep, "_CHUNK", chunk)
    axes = (("k1", 0.5, 2.5), ("k2", 0.5, 2.5)) if family == "tmst" else (
        ("k", 0.5, 2.0), ("T", 0.05, 0.95))
    cfg = sweep.SweepConfig(family=family, r=0.48,
                            **{key: sweep.AxisSpec(*axis, steps)
                               for key, axis in zip(("axis1", "axis2"), axes)})
    sorted_columns = []
    real = np.unique

    def spy(ar, *args, **kwargs):
        sorted_columns.append(ar.size)
        return real(ar, *args, **kwargs)

    monkeypatch.setattr(core.np, "unique", spy)
    pieces = list(sweep.text(cfg, fmt))
    monkeypatch.undo()
    sep = "\n" if fmt == "csv" else ",\n    "
    want = [row for columns in sweep.run_sweep(cfg)
            for row in reference_rows(columns, fmt, {"class": criteria.LABELS})]
    assert "".join(pieces[1:-1]).split(sep) == want  # lists: a failure names the first row
    assert len(want) == steps * steps
    # axes, flags and labels are codes, and fidelity rides on det_m's distinct values: only
    # three float result columns are sorted
    assert len(sorted_columns) == 3 * -(-steps * steps // chunk)


@pytest.mark.parametrize("family, r", [("tmst", 0.0), ("tmst", 4.5), ("tmst", 10.0),
                                       ("tmst", 17.0), ("bs", 7.6)])
def test_run_sweep_rows_are_the_stacked_states_bits(monkeypatch, family, r):
    # the family's entries, as run_sweep passes them, against the kernel on the views of the
    # constructor's (n, 4, 4) stack, bit for bit in all ten columns (floats as int64, so nan
    # and -0 count); past r = 0 these grids hold Unphysical rows, and the tmst ones from
    # r = 10 matrices that rounding stores not positive definite
    monkeypatch.setattr(sweep, "_CHUNK", 1000)
    names, build, _ = sweep._FAMILIES[family]
    axes = ((0.5, 2.5), (0.5, 2.5)) if family == "tmst" else ((0.5, 2.0), (0.05, 0.95))
    cfg = sweep.SweepConfig(family, r, *(sweep.AxisSpec(name, lo, hi, 61)
                                         for name, (lo, hi) in zip(names, axes)))
    grid = np.meshgrid(cfg.axis1.values(), cfg.axis2.values(), indexing="ij")
    unphysical, lo = 0, 0
    for chunk in sweep.run_sweep(cfg):
        n = chunk["axis1"].size
        want = {"axis1": grid[0].ravel()[lo:lo + n], "axis2": grid[1].ravel()[lo:lo + n],
                **criteria._evaluate(core._entries(build(r, chunk["axis1"], chunk["axis2"])))[1]}
        assert list(chunk) == list(want)
        for name, column in want.items():
            got = chunk[name]
            if column.dtype.kind == "f":
                got, column = got.view("i8"), column.view("i8")
            assert got.dtype == column.dtype and np.array_equal(got, column), (name, lo)
        unphysical += np.count_nonzero(criteria.LABELS[chunk["class"]] == "Unphysical")
        lo += n
    assert lo == cfg.size and (unphysical > 0) == (r > 0)


def test_tmst_chunk_compute_peak_is_pinned():
    # one full tmst chunk from the family's entries: a tracemalloc peak of 11.55 MB (numpy
    # 2.4.6), against 17.3 MB when each chunk was an (n, 4, 4) stack read through views
    cfg = sweep.SweepConfig("tmst", 0.48, sweep.AxisSpec("k1", 0.5, 2.5, 1001),
                            sweep.AxisSpec("k2", 0.5, 2.5, 1001))
    chunks = sweep.run_sweep(cfg)
    tracemalloc.start()
    try:
        chunk = next(chunks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunk["class"].size == sweep._CHUNK
    assert peak < 12_000_000, peak


def test_run_sweep_takes_no_spectrum_on_an_ordinary_grid(monkeypatch):
    # no row goes without a spectrum: the factor takes every one, one chunk at a time
    spectra = []
    real = core._spectrum
    monkeypatch.setattr(core, "_spectrum", lambda *a: spectra.append(real(*a)) or spectra[-1])
    monkeypatch.setattr(sweep, "_CHUNK", 4)
    grid = columns(tiny_tmst(3, 5))
    assert len(spectra) == 4 and not np.isnan(np.concatenate(sum(spectra, ()))).any()
    assert grid["axis1"].size == 15


def test_sweep_rows_classify_and_state_agree(capsys):
    # one rule on every path: a sweep row, classify and state give a point one label, also
    # where rounding stored the matrix unphysical
    def row_label(family, r, lo1, lo2):  # the first row of a grid whose corner is the point
        names = sweep._FAMILIES[family][0]
        config = sweep.SweepConfig(family, r, sweep.AxisSpec(names[0], lo1, lo1 + 0.5, 2),
                                   sweep.AxisSpec(names[1], lo2, lo2 + 0.05, 2))
        return criteria.LABELS[next(sweep.run_sweep(config))["class"][0]]

    points = [("tmst", 0.5 * i, 0.5, 0.5) for i in range(41)] + [
        ("bs", 0.01 * i, 0.5, T) for T in (0.3, 0.5, 0.9) for i in range(901)]
    build = {family: f for family, (_, f, _) in sweep._FAMILIES.items()}
    labels = {}
    for point in points:
        family, *args = point
        labels[point] = criteria.classify(build[family](*args))[1].value
        assert row_label(*point) == labels[point], point
    # both grids reach matrices that rounding stored unphysical
    assert {"tmst", "bs"} <= {p[0] for p, v in labels.items() if v == "Unphysical"}
    for r in ("4.5", "9.5", "19"):
        code = cli.main(["state", "tmst", "--r", r, "--k1", ".5", "--k2", ".5"])
        capsys.readouterr()
        want = labels[("tmst", float(r), 0.5, 0.5)] == "Unphysical"
        assert code == (cli.EXIT_UNPHYSICAL if want else cli.EXIT_OK), r


def test_sweep_is_deterministic():
    a = text(tiny_tmst())
    b = text(tiny_tmst())
    assert a == b


def test_write_csv_file(tmp_path):
    path = tmp_path / "grid.csv"
    sweep.write(tiny_tmst(), path, "csv")
    written = path.read_text()
    assert written == text(tiny_tmst())
    assert written.startswith(HEADER)
    sweep.write(tiny_tmst(), path, "json")  # one config, both formats
    assert path.read_text() == text(tiny_tmst(), "json")


def test_write_failing_mid_stream_leaves_no_file(tmp_path, monkeypatch):
    def failing_text(config, fmt):
        yield HEADER + "\n"
        raise OSError("disk full")

    monkeypatch.setattr(sweep, "text", failing_text)
    path = tmp_path / "grid.csv"
    with pytest.raises(OSError, match="disk full"):
        sweep.write(tiny_tmst(), path, "csv")
    assert list(tmp_path.iterdir()) == []
    path.write_text("old")  # an existing file is kept whole
    with pytest.raises(OSError, match="disk full"):
        sweep.write(tiny_tmst(), path, "csv")
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "old"


def test_write_gives_the_mode_open_gives(tmp_path):
    reference = tmp_path / "reference"
    with open(reference, "w"):
        pass
    path = tmp_path / "grid.csv"
    sweep.write(tiny_tmst(), path, "csv")
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
    assert sorted(tmp_path.iterdir()) == [path, reference]
    path.chmod(0o600)  # an existing file keeps its permissions, as with open
    sweep.write(tiny_tmst(), path, "csv")
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_write_through_a_symlink_replaces_its_target(tmp_path):
    target = tmp_path / "grid.csv"
    target.write_text("old")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    sweep.write(tiny_tmst(), link, "csv")
    assert link.is_symlink()
    assert target.read_text() == text(tiny_tmst())
    assert sorted(tmp_path.iterdir()) == [target, link]


def test_write_to_a_device_writes_in_place():
    sweep.write(tiny_tmst(), os.devnull, "csv")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize("family, fmt", [("tmst", "csv"), ("bs", "json")])
def test_write_memory_is_bounded_by_the_chunk(tmp_path, monkeypatch, family, fmt):
    monkeypatch.setattr(sweep, "_CHUNK", 1024)
    axes = (("k1", 0.5, 3.0), ("k2", 0.5, 3.0)) if family == "tmst" else (
        ("k", 0.5, 3.0), ("T", 0.05, 0.95))
    cfg = sweep.SweepConfig(family=family, r=0.5,
                            **{key: sweep.AxisSpec(*axis, 200)
                               for key, axis in zip(("axis1", "axis2"), axes)})
    path = tmp_path / f"grid.{fmt}"
    tracemalloc.start()
    try:  # compute and write: no array or text grows with the grid
        sweep.write(cfg, path, fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * path.stat().st_size


def test_json_text_peak_stays_at_its_compute_peak():
    # 400² bs rows, two full chunks and part of a third.  Each chunk is formatted
    # in place, so the peak of text is the larger of a chunk's compute peak and
    # the chunk plus the peak of formatting its columns' distinct values into
    # tokens, plus what the writer holds meanwhile: under 25,739 bytes here
    # (numpy 2.4.6).  With the bs state in closed form, formatting sets the peak.
    # A chunk's rows, or its per-row token lists, held whole at once would add
    # about 34 or 3.5 MB
    cfg = sweep.SweepConfig(family="bs", r=0.48,
                            axis1=sweep.AxisSpec("k", 0.5, 2.0, 400),
                            axis2=sweep.AxisSpec("T", 0.05, 0.95, 400))
    assert cfg.size >= 2 * sweep._CHUNK
    tables = {"axis1": cfg.axis1.values(), "axis2": cfg.axis2.values(),
              "class": criteria.LABELS}
    tracemalloc.start()
    try:
        collections.deque(sweep.run_sweep(cfg), maxlen=0)
        compute = tracemalloc.get_traced_memory()[1]
        chunk = sweep._axis_codes(next(sweep.run_sweep(cfg)), 0, cfg.axis2.steps)
        tracemalloc.reset_peak()  # the JSON tokens the writer makes of the chunk
        tokens = core._tokens(chunk, "json", tables, sweep._GROUPS)
        formatting = tracemalloc.get_traced_memory()[1]
        del chunk, tokens
        tracemalloc.reset_peak()
        collections.deque(sweep.text(cfg, "json"), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - max(compute, formatting) <= 25_739, (peak, compute, formatting)


# the reference grids at r = 0.48 and the SHA-256 of their text
REFERENCE_SWEEPS = [
    ("tmst", "csv", (("k1", 0.5, 2.5, 1001), ("k2", 0.5, 2.5, 1001)),
     "fc067d4603ff501a67d3a72e06c93756a0bd1b788d541b6f51d7ff9def818c50"),
    ("bs", "json", (("k", 0.5, 2.0, 501), ("T", 0.05, 0.95, 501)),
     "d1d229eb6b9fcf93ce5050e954c58f151a7c227a2f750c4002c7bea052aa223d"),
]


def reference_sha256(family, fmt, axes):
    cfg = sweep.SweepConfig(family=family, r=0.48,
                            axis1=sweep.AxisSpec(*axes[0]), axis2=sweep.AxisSpec(*axes[1]))
    digest = hashlib.sha256()
    for piece in sweep.text(cfg, fmt):
        digest.update(piece.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("family, fmt, axes, sha256", REFERENCE_SWEEPS)
def test_reference_sweeps_keep_their_bytes(family, fmt, axes, sha256):
    assert reference_sha256(family, fmt, axes) == sha256


def test_bs_reference_grid_verdicts_match_the_explicit_product():
    # the closed-form states and the matmul product S_BS V_in S_BS^T get the
    # same class and flags on every row of the 501² reference grid
    family, _, axes, _ = REFERENCE_SWEEPS[1]
    cfg = sweep.SweepConfig(family=family, r=0.48,
                            axis1=sweep.AxisSpec(*axes[0]), axis2=sweep.AxisSpec(*axes[1]))
    rows = 0
    for chunk in sweep.run_sweep(cfg):
        V = beam_splitter_product(cfg.r, chunk["axis1"], chunk["axis2"])
        want = criteria._evaluate(core._entries(V))[1]
        for name in ("entangled", "epr", "qt", "class"):
            assert np.array_equal(chunk[name], want[name]), name
        rows += chunk["class"].size
    assert rows == 501 * 501


def test_degenerate_two_by_two_grid():
    cfg = sweep.SweepConfig(
        family="tmst",
        r=0.0,
        axis1=sweep.AxisSpec("k1", 0.5, 0.6, 2),
        axis2=sweep.AxisSpec("k2", 0.5, 0.6, 2),
    )
    assert len(text(cfg).strip().split("\n")) == 5
    assert np.all(criteria.LABELS[columns(cfg)["class"]] == "Separable")  # no squeezing, thermal states
