"""Parameter-plane sweeps: grid order, file formats, region coherence."""

import json
import tracemalloc

import numpy as np
import pytest

import gaussqt.core as core
import gaussqt.criteria as criteria
import gaussqt.resources as resources
import gaussqt.sweep as sweep
from gaussqt.errors import GridSizeError, InvalidInput

HEADER = "axis1,axis2,delta_epr,f_epr,det_m,fidelity,entangled,epr,qt,class"


def tiny_tmst(steps1=2, steps2=3, fmt="csv"):
    return sweep.SweepConfig(
        family="tmst",
        fixed={"r": 0.48},
        axis1=sweep.AxisSpec("k1", 0.5, 1.5, steps1),
        axis2=sweep.AxisSpec("k2", 0.5, 2.5, steps2),
        format=fmt,
    )


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
        sweep.SweepConfig(family="other", fixed={"r": 0.1}, axis1=ax, axis2=ax2)
    with pytest.raises(InvalidInput):
        sweep.SweepConfig(family="tmst", fixed={}, axis1=ax, axis2=ax2)
    with pytest.raises(InvalidInput):
        sweep.SweepConfig(family="tmst", fixed={"r": -0.5}, axis1=ax, axis2=ax2)
    with pytest.raises(InvalidInput):  # axis names must match the family
        sweep.SweepConfig(family="tmst", fixed={"r": 0.1}, axis1=ax2, axis2=ax)
    with pytest.raises(InvalidInput):  # k axis below the thermal floor
        sweep.SweepConfig(
            family="tmst",
            fixed={"r": 0.1},
            axis1=sweep.AxisSpec("k1", 0.3, 1.0, 3),
            axis2=ax2,
        )
    with pytest.raises(InvalidInput):  # T axis must stay inside (0, 1)
        sweep.SweepConfig(
            family="bs",
            fixed={"r": 0.1},
            axis1=sweep.AxisSpec("k", 0.5, 1.0, 3),
            axis2=sweep.AxisSpec("T", 0.0, 0.9, 3),
        )
    with pytest.raises(InvalidInput):
        sweep.SweepConfig(
            family="tmst", fixed={"r": 0.1}, axis1=ax, axis2=ax2, format="yaml"
        )


def test_grid_budget_enforced():
    with pytest.raises(GridSizeError):
        sweep.SweepConfig(
            family="tmst",
            fixed={"r": 0.1},
            axis1=sweep.AxisSpec("k1", 0.5, 1.0, 3000),
            axis2=sweep.AxisSpec("k2", 0.5, 1.0, 3000),
        )
    cfg = sweep.SweepConfig(
        family="tmst",
        fixed={"r": 0.1},
        axis1=sweep.AxisSpec("k1", 0.5, 1.0, 2000),
        axis2=sweep.AxisSpec("k2", 0.5, 1.0, 2000),
    )
    assert cfg.size == 4_000_000


# ------------------------------------------------------------- evaluation


def test_run_sweep_row_order_and_values():
    grid = sweep.run_sweep(tiny_tmst())
    assert grid.n_rows == 6
    k1s = np.linspace(0.5, 1.5, 2)
    k2s = np.linspace(0.5, 2.5, 3)
    want1 = np.repeat(k1s, 3)
    want2 = np.tile(k2s, 2)
    assert np.array_equal(grid.axis1, want1)
    assert np.array_equal(grid.axis2, want2)
    for i in range(6):
        V = resources.tmst(resources.TmstSpec(0.48, grid.axis1[i], grid.axis2[i]))
        rep, lab = criteria.classify(V)
        assert abs(grid.delta_epr[i] - rep.delta_epr) < 1e-12
        assert abs(grid.det_m[i] - rep.det_m) < 1e-12
        assert abs(grid.fidelity[i] - rep.fidelity) < 1e-12
        assert abs(grid.f_epr[i] - rep.f_epr) < 1e-12
        assert grid.entangled[i] == rep.entangled
        assert grid.epr[i] == rep.epr_correlated
        assert grid.qt[i] == rep.qt
        assert grid.labels[i] == lab.value


def test_run_sweep_bs_family():
    cfg = sweep.SweepConfig(
        family="bs",
        fixed={"r": 0.5},
        axis1=sweep.AxisSpec("k", 0.5, 1.0, 3),
        axis2=sweep.AxisSpec("T", 0.25, 0.75, 3),
    )
    grid = sweep.run_sweep(cfg)
    assert grid.n_rows == 9
    for i in range(9):
        V = resources.bs_resource(resources.BsSpec(0.5, grid.axis1[i], grid.axis2[i]))
        rep, _ = criteria.classify(V)
        assert abs(grid.fidelity[i] - rep.fidelity) < 1e-12


def test_run_sweep_chunking_is_invisible(monkeypatch):
    cfg = tiny_tmst(5, 5)
    whole = sweep.run_sweep(cfg)
    monkeypatch.setattr(sweep, "_CHUNK", 7)
    chunked = sweep.run_sweep(cfg)
    assert np.array_equal(whole.delta_epr, chunked.delta_epr)
    assert np.array_equal(whole.fidelity, chunked.fidelity)
    assert np.array_equal(whole.entangled, chunked.entangled)
    assert np.array_equal(whole.labels, chunked.labels)


def test_region_structure_on_coarse_grids():
    tm = sweep.SweepConfig(
        family="tmst",
        fixed={"r": 0.48},
        axis1=sweep.AxisSpec("k1", 0.5, 2.5, 31),
        axis2=sweep.AxisSpec("k2", 0.5, 2.5, 31),
    )
    g = sweep.run_sweep(tm)
    assert np.all(~g.qt | g.entangled)  # teleportation only inside entanglement
    assert np.all(~g.epr | g.qt)  # EPR correlation only inside teleportation
    assert g.qt.any() and (~g.qt & g.entangled).any()
    bsc = sweep.SweepConfig(
        family="bs",
        fixed={"r": 0.5},
        axis1=sweep.AxisSpec("k", 0.5, 2.0, 31),
        axis2=sweep.AxisSpec("T", 0.05, 0.95, 31),
    )
    h = sweep.run_sweep(bsc)
    assert np.all(~h.qt | h.entangled)
    assert np.all(~h.epr | h.qt)
    assert (h.qt & ~h.epr).any()


# ---------------------------------------------------------------- output


def test_csv_layout():
    text = sweep.run_sweep(tiny_tmst()).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == HEADER
    assert len(lines) == 7
    first = lines[1].split(",")
    assert len(first) == 10
    assert first[0] == "0.5"
    assert first[6] in ("0", "1")
    assert first[9] in ("Separable", "EntangledNoQT", "QTNoEPR", "EPRCorrelated")


def test_csv_floats_roundtrip():
    grid = sweep.run_sweep(tiny_tmst())
    lines = grid.to_csv().strip().split("\n")[1:]
    for i, line in enumerate(lines):
        parts = line.split(",")
        assert float(parts[2]) == grid.delta_epr[i]
        assert float(parts[5]) == grid.fidelity[i]


def test_json_layout():
    grid = sweep.run_sweep(tiny_tmst(fmt="json"))
    doc = json.loads(grid.to_json())
    assert doc["config"]["family"] == "tmst"
    assert doc["config"]["fixed"] == {"r": 0.48}
    assert doc["config"]["axis1"] == {"name": "k1", "min": 0.5, "max": 1.5, "steps": 2}
    assert doc["config"]["axis2"] == {"name": "k2", "min": 0.5, "max": 2.5, "steps": 3}
    rows = doc["rows"]
    assert len(rows) == 6
    assert isinstance(rows[0]["entangled"], bool)
    assert rows[0]["class"] in ("Separable", "EntangledNoQT", "QTNoEPR", "EPRCorrelated")
    assert rows[0]["delta_epr"] == grid.delta_epr[0]


def test_run_sweep_one_spectrum_per_chunk(monkeypatch):
    calls = []
    real = core._sym_eigs
    monkeypatch.setattr(core, "_sym_eigs", lambda V: calls.append(len(V)) or real(V))
    monkeypatch.setattr(sweep, "_CHUNK", 4)
    grid = sweep.run_sweep(tiny_tmst(3, 5))
    assert calls == [4, 4, 4, 3]
    assert grid.n_rows == 15


def test_sweep_is_deterministic():
    a = sweep.run_sweep(tiny_tmst()).to_csv()
    b = sweep.run_sweep(tiny_tmst()).to_csv()
    assert a == b


def test_write_csv_file(tmp_path):
    path = tmp_path / "grid.csv"
    grid = sweep.run_sweep(tiny_tmst())
    grid.write(path)
    text = path.read_text()
    assert text == grid.to_csv()
    assert text.startswith(HEADER)
    sweep.run_sweep(tiny_tmst(fmt="json")).write(path)
    assert json.loads(path.read_text())["config"]["family"] == "tmst"


@pytest.mark.parametrize("family, fmt", [("tmst", "csv"), ("bs", "json")])
def test_write_memory_is_bounded_by_the_chunk(tmp_path, monkeypatch, family, fmt):
    monkeypatch.setattr(sweep, "_CHUNK", 1024)
    axes = (("k1", 0.5, 3.0), ("k2", 0.5, 3.0)) if family == "tmst" else (
        ("k", 0.5, 3.0), ("T", 0.05, 0.95))
    cfg = sweep.SweepConfig(family=family, fixed={"r": 0.5}, format=fmt,
                            **{key: sweep.AxisSpec(*axis, 200)
                               for key, axis in zip(("axis1", "axis2"), axes)})
    grid = sweep.run_sweep(cfg)
    path = tmp_path / f"grid.{fmt}"
    tracemalloc.start()
    try:
        grid.write(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * path.stat().st_size


def test_degenerate_two_by_two_grid():
    cfg = sweep.SweepConfig(
        family="tmst",
        fixed={"r": 0.0},
        axis1=sweep.AxisSpec("k1", 0.5, 0.6, 2),
        axis2=sweep.AxisSpec("k2", 0.5, 0.6, 2),
    )
    grid = sweep.run_sweep(cfg)
    text = grid.to_csv()
    assert len(text.strip().split("\n")) == 5
    assert np.all(grid.labels == "Separable")  # no squeezing, thermal states
