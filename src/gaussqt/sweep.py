"""Rectangular parameter sweeps producing machine-readable region grids.

A sweep fixes the squeeze parameter of a resource family and scans two axes
(tmst: k1, k2; bs: k, T), evaluating the EPR uncertainty, det M, fidelity and
the three verdict flags at every grid point: ``criteria._evaluate``, the one
evaluation path, reads the family's entries, with no (n, 4, 4) stack.  The
sweep is one stream: ``run_sweep`` yields one dict of column arrays per chunk
(axis1, axis2 and ``criteria._evaluate``'s row, ``class`` as int8 codes into
``criteria.LABELS``), and ``text``/``write`` format each chunk as it arrives,
as CSV or JSON by their ``fmt`` argument, det_m and fidelity as one token per
distinct det M and the flags and label as one token per joint code; nothing
grows with the grid.  Rows are ordered with axis2 varying fastest, and
a row reads as ``classify`` reads its matrix, Unphysical included.
``SweepConfig`` checks the grid's corners, so a sweep that starts cannot
fail part-way.  Identical configurations produce byte-identical files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import core, criteria, resources
from .errors import GridSizeError, InvalidInput

__all__ = [
    "MAX_GRID_POINTS",
    "AxisSpec",
    "SweepConfig",
    "run_sweep",
    "text",
    "write",
]

MAX_GRID_POINTS = 4_000_000

# family -> (axis names, constructor, its unchecked entries), each taking (r, axis1, axis2)
_FAMILIES = {"tmst": (("k1", "k2"), resources.tmst_covmat, resources._tmst_entries),
             "bs": (("k", "T"), resources.bs_covmat, resources._bs_entries)}

# the writer's folded tokens: fidelity is a function of det_m; flags and label, 40 codes
_GROUPS = (("det_m", "fidelity"), ("entangled", "epr", "qt", "class"))

# rows per kernel call and per piece of text.  A chunk's compute temporaries
# and its text set a sweep's peak memory; at 1 << 17 a process's second JSON
# sweep peaked higher than its first, as freed temporaries stayed resident
_CHUNK = 1 << 16


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
    """A validated grid: the family, its fixed r and its two axes.  The family
    constructor, called on the grid's four corners, is the one check of the
    axes' domain, and runs before the point budget."""

    family: str
    r: float
    axis1: AxisSpec
    axis2: AxisSpec

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidInput(f"family must be one of {tuple(_FAMILIES)}")
        names, build, _ = _FAMILIES[self.family]
        if (self.axis1.name, self.axis2.name) != names:
            raise InvalidInput(f"axes for family {self.family!r} must be {names}, "
                               f"got {(self.axis1.name, self.axis2.name)}")
        r = self.r
        if not (isinstance(r, (int, float)) and math.isfinite(r) and r >= 0):
            raise InvalidInput("r must be finite and >= 0")
        # a covariance matrix's largest entry is on its diagonal, and each family's
        # diagonal is monotone in k and linear in T, so the four corners bound every
        # entry: a grid that passes cannot fail mid-stream
        a1, a2 = self.axis1, self.axis2
        core._as_covmat(build(r, [a1.lo, a1.lo, a1.hi, a1.hi], [a2.lo, a2.hi, a2.lo, a2.hi]))
        if self.size > MAX_GRID_POINTS:
            raise GridSizeError(
                f"grid of {self.size} points exceeds the {MAX_GRID_POINTS} point budget"
            )

    @property
    def size(self) -> int:
        return self.axis1.steps * self.axis2.steps


def run_sweep(config: SweepConfig):
    """Evaluate the grid chunk by chunk, in row order (axis2 fastest): for
    each _CHUNK rows yield a dict of column arrays, axis1, axis2 and the
    kernel's output row by output name (``class`` as codes into
    ``criteria.LABELS``)."""
    v1, v2 = config.axis1.values(), config.axis2.values()
    r = float(config.r)
    entries = _FAMILIES[config.family][2]
    for lo in range(0, config.size, _CHUNK):
        i = np.arange(lo, min(lo + _CHUNK, config.size))
        chunk = {"axis1": v1[i // v2.size], "axis2": v2[i % v2.size]}
        del i  # while a chunk is formatted, only its dict holds its arrays
        chunk.update(criteria._evaluate(entries(r, chunk["axis1"], chunk["axis2"]))[1])
        yield chunk


def text(config: SweepConfig, fmt: str):
    """The sweep's text in ``fmt`` ("csv" or "json", checked before the first
    piece), in pieces: the head, the rows of each chunk in blocks of
    ``core._ROW_BLOCK`` (with the row separator between blocks), the tail."""
    if fmt not in ("csv", "json"):
        raise InvalidInput('format must be "csv" or "json"')
    if fmt == "csv":
        head = ",".join(("axis1", "axis2", *criteria._UNPHYSICAL_ROW)) + "\n"
        sep, tail = "\n", "\n"
    else:
        axes = {key: {"name": a.name, "min": float(a.lo), "max": float(a.hi), "steps": a.steps}
                for key, a in (("axis1", config.axis1), ("axis2", config.axis2))}
        head = '{\n  "config": ' + core.record_json(
            {"family": config.family, "fixed": {"r": float(config.r)}, **axes}
        ) + ',\n  "rows": [\n    '
        sep, tail = ",\n    ", "\n  ]\n}\n"
    tables = {"axis1": config.axis1.values(), "axis2": config.axis2.values(),
              "class": criteria.LABELS}
    chunks = run_sweep(config)
    yield head
    for lo in range(0, config.size, _CHUNK):
        # format next(chunks) in place, and drop the last block before the next
        # chunk is computed: a variable would keep either alive meanwhile
        for i, block in enumerate(core._row_blocks(
                _axis_codes(next(chunks), lo, config.axis2.steps), fmt, tables, _GROUPS)):
            if lo or i:
                yield sep
            yield sep.join(block)
        del block
    yield tail


def _axis_codes(chunk: dict, lo: int, steps2: int) -> dict:
    """``chunk`` (rows from ``lo``) with its axes as codes into the axis values,
    so the writer formats each axis value once per chunk without a sort."""
    chunk["axis1"], chunk["axis2"] = np.divmod(np.arange(lo, lo + chunk["axis1"].size), steps2)
    return chunk


def write(config: SweepConfig, path, fmt: str) -> None:
    """Write the sweep's text in ``fmt`` (see ``text``) to ``path`` whole or not at all: a
    new file beside it (or its symlink's target) replaces it when complete.  Devices and
    pipes are written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(text(config, fmt))
        return
    head, tail = os.path.split(os.path.realpath(path))
    tmp = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
    except OSError as exc:  # name the path asked for, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            fh.writelines(text(config, fmt))
        if os.path.exists(path):  # keep the permissions open(path, "w") would keep
            os.chmod(tmp, os.stat(path).st_mode & 0o7777)
        os.replace(tmp, os.path.join(head, tail))
    except BaseException:
        os.unlink(tmp)
        raise
