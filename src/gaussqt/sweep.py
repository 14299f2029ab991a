"""Rectangular parameter sweeps producing machine-readable region grids.

A sweep fixes the squeeze parameter of a resource family and scans two
axes (tmst: k1, k2; bs: k, T), evaluating the EPR uncertainty, det M,
fidelity and the three verdict flags at every grid point through
``criteria._evaluate``, the package's one evaluation path, called once
per chunk of rows.  The family constructors build physical states only,
so rows get no separate physicality check.  Rows are ordered with axis2
varying fastest; each is axis1, axis2 and the kernel's output row
(``criteria._ROW_SCHEMA``), written as CSV or JSON one chunk of rows at a
time, so writing a file never holds its whole text.  Identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core, criteria, resources
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

# rows per kernel call in run_sweep and per formatted slice in RegionGrid
_CHUNK = 1 << 17


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

    def _text(self, fmt: str):
        """The text in format ``fmt`` in pieces: the head, the rows of each
        _CHUNK-row slice (with the row separator between slices), the tail."""
        columns = {"axis1": self.axis1, "axis2": self.axis2, **criteria._row(self)}
        if fmt == "csv":
            head, sep, tail = ",".join(columns) + "\n", "\n", "\n"
        else:
            cfg = self.config
            axes = {key: {"name": a.name, "min": float(a.lo), "max": float(a.hi), "steps": a.steps}
                    for key, a in (("axis1", cfg.axis1), ("axis2", cfg.axis2))}
            config = core.record_json({"family": cfg.family, "fixed": {"r": float(cfg.fixed["r"])},
                                       **axes})
            head = '{\n  "config": ' + config + ',\n  "rows": [\n    '
            sep, tail = ",\n    ", "\n  ]\n}\n"
        yield head
        for lo in range(0, self.n_rows, _CHUNK):
            if lo:
                yield sep
            chunk = {name: column[lo:lo + _CHUNK] for name, column in columns.items()}
            yield sep.join(core.rows(chunk, fmt))
        yield tail

    def to_csv(self) -> str:
        return "".join(self._text("csv"))

    def to_json(self) -> str:
        return "".join(self._text("json"))

    def to_text(self) -> str:
        return "".join(self._text(self.config.format))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(self._text(self.config.format))


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
            out = {name: np.empty(n, getattr(cols, name).dtype)
                   for name in criteria._ROW_SCHEMA.values()}
        for name, column in out.items():
            column[lo:hi] = getattr(cols, name)
    return RegionGrid(config=config, axis1=a1, axis2=a2, **out)
