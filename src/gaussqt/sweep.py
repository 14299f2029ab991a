"""Rectangular parameter sweeps producing machine-readable region grids.

A sweep fixes the squeeze parameter of a resource family and scans two
axes (tmst: k1, k2; bs: k, T), evaluating the EPR uncertainty, det M,
fidelity and the three verdict flags at every grid point through
``criteria._evaluate``, the package's one evaluation path, called once
per chunk of rows.  The family constructors build physical states only,
so rows get no separate physicality check.  Rows are
ordered with axis2 varying fastest and serialise to CSV (header
axis1,axis2,delta_epr,f_epr,det_m,fidelity,entangled,epr,qt,class,
booleans as 0/1) or JSON (booleans true/false).  Identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core, criteria, resources
from .core import fmt17, json_bool
from .errors import GridSizeError, InvalidInput

__all__ = [
    "MAX_GRID_POINTS",
    "AxisSpec",
    "SweepConfig",
    "RegionGrid",
    "run_sweep",
]

MAX_GRID_POINTS = 4_000_000

_FAMILY_AXES = {"tmst": ("k1", "k2"), "bs": ("k", "T")}

_CSV_HEADER = "axis1,axis2,delta_epr,f_epr,det_m,fidelity,entangled,epr,qt,class"

_CHUNK = 1 << 17

# the kernel's columns a RegionGrid keeps, in its field order
_GRID_COLUMNS = ("delta_epr", "f_epr", "det_m", "fidelity", "entangled", "epr", "qt", "labels")


@dataclass(frozen=True)
class AxisSpec:
    """One sweep axis: steps points from lo to hi inclusive."""

    name: str
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise InvalidInput(f"axis {self.name!r} needs finite min < max")
        if not (isinstance(self.steps, int) and self.steps >= 2):
            raise InvalidInput(f"axis {self.name!r} needs an integer steps >= 2")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


@dataclass(frozen=True)
class SweepConfig:
    family: str
    fixed: dict
    axis1: AxisSpec
    axis2: AxisSpec
    format: str = "csv"

    def __post_init__(self):
        if self.family not in _FAMILY_AXES:
            raise InvalidInput(f"family must be one of {tuple(_FAMILY_AXES)}")
        names = (self.axis1.name, self.axis2.name)
        if names != _FAMILY_AXES[self.family]:
            raise InvalidInput(
                f"axes for family {self.family!r} must be {_FAMILY_AXES[self.family]}, got {names}"
            )
        if "r" not in self.fixed:
            raise InvalidInput('fixed parameters must include "r"')
        r = self.fixed["r"]
        if not (isinstance(r, (int, float)) and math.isfinite(r) and r >= 0):
            raise InvalidInput("fixed r must be >= 0")
        if self.format not in ("csv", "json"):
            raise InvalidInput('format must be "csv" or "json"')
        lo1, lo2 = self.axis1.lo, self.axis2.lo
        if self.family == "tmst":
            if lo1 < 0.5 or lo2 < 0.5:
                raise InvalidInput("k1 and k2 axes must start at >= 1/2")
        else:
            if lo1 < 0.5:
                raise InvalidInput("k axis must start at >= 1/2")
            if lo2 <= 0.0 or self.axis2.hi >= 1.0:
                raise InvalidInput("T axis must stay strictly inside (0, 1)")
        if self.size > MAX_GRID_POINTS:
            raise GridSizeError(
                f"grid of {self.size} points exceeds the {MAX_GRID_POINTS} point budget"
            )

    @property
    def size(self) -> int:
        return self.axis1.steps * self.axis2.steps


@dataclass(frozen=True)
class RegionGrid:
    """Evaluated sweep: column arrays in row order (axis2 fastest)."""

    config: SweepConfig
    axis1: np.ndarray
    axis2: np.ndarray
    delta_epr: np.ndarray = field(repr=False)
    f_epr: np.ndarray = field(repr=False)
    det_m: np.ndarray = field(repr=False)
    fidelity: np.ndarray = field(repr=False)
    entangled: np.ndarray = field(repr=False)
    epr: np.ndarray = field(repr=False)
    qt: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    @property
    def n_rows(self) -> int:
        return self.axis1.size

    def to_csv(self) -> str:
        lines = [_CSV_HEADER]
        for i in range(self.n_rows):
            lines.append(
                f"{fmt17(self.axis1[i])},{fmt17(self.axis2[i])},"
                f"{fmt17(self.delta_epr[i])},{fmt17(self.f_epr[i])},"
                f"{fmt17(self.det_m[i])},{fmt17(self.fidelity[i])},"
                f"{int(self.entangled[i])},{int(self.epr[i])},{int(self.qt[i])},"
                f"{self.labels[i]}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        cfg = self.config
        config = core.record_json({
            "family": cfg.family,
            "fixed": {"r": float(cfg.fixed["r"])},
            **{key: {"name": a.name, "min": float(a.lo), "max": float(a.hi), "steps": a.steps}
               for key, a in (("axis1", cfg.axis1), ("axis2", cfg.axis2))},
        })
        head = '{\n  "config": ' + config + ',\n  "rows": [\n'
        rows = []
        for i in range(self.n_rows):
            rows.append(
                "    {"
                f'"axis1": {fmt17(self.axis1[i])}, '
                f'"axis2": {fmt17(self.axis2[i])}, '
                f'"delta_epr": {fmt17(self.delta_epr[i])}, '
                f'"f_epr": {fmt17(self.f_epr[i])}, '
                f'"det_m": {fmt17(self.det_m[i])}, '
                f'"fidelity": {fmt17(self.fidelity[i])}, '
                f'"entangled": {json_bool(self.entangled[i])}, '
                f'"epr": {json_bool(self.epr[i])}, '
                f'"qt": {json_bool(self.qt[i])}, '
                f'"class": "{self.labels[i]}"'
                "}"
            )
        return head + ",\n".join(rows) + "\n  ]\n}\n"

    def to_text(self) -> str:
        return self.to_csv() if self.config.format == "csv" else self.to_json()

    def write(self, path) -> None:
        text = self.to_text()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def run_sweep(config: SweepConfig) -> RegionGrid:
    """Evaluate the grid.  Vectorised in chunks; deterministic row order
    with axis2 fastest regardless of chunking."""
    v1 = config.axis1.values()
    v2 = config.axis2.values()
    X1, X2 = np.meshgrid(v1, v2, indexing="ij")
    a1 = X1.ravel()
    a2 = X2.ravel()
    n = a1.size
    r = float(config.fixed["r"])
    build = resources.tmst_covmat if config.family == "tmst" else resources.bs_covmat

    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        cols = criteria._evaluate(build(r, a1[lo:hi], a2[lo:hi]))
        if lo == 0:
            out = {name: np.empty(n, getattr(cols, name).dtype) for name in _GRID_COLUMNS}
        for name, column in out.items():
            column[lo:hi] = getattr(cols, name)
    return RegionGrid(config=config, axis1=a1, axis2=a2, **out)
