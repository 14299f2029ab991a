"""EPR correlation, coherent-state teleportation fidelity, and classification.

For a two-mode covariance matrix with blocks A, B, C the quality of
unit-gain coherent-state teleportation through the state is governed by
the 2x2 matrix

    M = A - (C sigma_z + sigma_z C^T) + sigma_z B sigma_z + I,

which is symmetric positive definite for every physical state.  The
fidelity is F = 1/sqrt(det M), teleportation beats the classical channel
iff det M < 4, and the EPR uncertainty Delta = <d^2(x_a - x_b)> +
<d^2(p_a + p_b)> satisfies Tr M = Delta + 2, which makes EPR correlation
(Delta < 2) sufficient for det M < 4 by the AM-GM inequality.

All comparisons against the boundaries 2 and 4 are strict with no
tolerance band; raw values are always reported so consumers can apply
their own thresholds.

``_evaluate`` is the one evaluation path: it turns a stack of physical
covariance matrices into the column arrays of ``Columns`` and is the only
place the label precedence is written.  ``classify`` (one state or a
stack), ``sweep.run_sweep`` (one call per chunk) and the CLI's ``analyze``
are views over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import core
from .core import PHYSICALITY_TOL
from .errors import NumericalDomainError

__all__ = [
    "CriteriaReport",
    "Classification",
    "epr_uncertainty",
    "epr_degree",
    "m_matrix",
    "fidelity",
    "detm_values",
    "detm_epsilon_values",
    "qt_epr_values",
    "classify",
    "report_to_json",
]

_I2 = np.eye(2)


def _delta_raw(V: np.ndarray) -> np.ndarray:
    # <d^2(x_a - x_b)> + <d^2(p_a + p_b)> straight from the entries
    return (
        V[..., 0, 0] + V[..., 2, 2] - 2.0 * V[..., 0, 2]
        + V[..., 1, 1] + V[..., 3, 3] + 2.0 * V[..., 1, 3]
    )


def _m_raw(V: np.ndarray) -> np.ndarray:
    A = V[..., :2, :2]
    B = V[..., 2:, 2:]
    C = V[..., :2, 2:]
    SZ = core.SIGMA_Z
    Ct = np.swapaxes(C, -1, -2)
    return A - (C @ SZ + SZ @ Ct) + SZ @ B @ SZ + _I2


def _det_m(V: np.ndarray) -> np.ndarray:
    return core._det2(_m_raw(V))


def _f_epr(delta: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, 2.0 - delta)


def _fidelity(det_m: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(det_m)


def _scalar_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def epr_uncertainty(V):
    """EPR uncertainty Delta = V11 + V33 - 2 V13 + V22 + V44 + 2 V24.

    Values below 2 mean the state is EPR correlated.  Stacked input
    broadcasts.
    """
    V = core.require_physical(V)
    return _scalar_or_array(_delta_raw(V))


def epr_degree(V):
    """Degree of EPR correlation, max(0, 2 - Delta)."""
    V = core.require_physical(V)
    return _scalar_or_array(_f_epr(_delta_raw(V)))


def m_matrix(V):
    """The 2x2 matrix M controlling coherent-state teleportation fidelity."""
    V = core.require_physical(V)
    return _m_raw(V)


def fidelity(V):
    """Coherent-state teleportation fidelity F = 1/sqrt(det M).

    F > 1/2 iff det M < 4.  det M <= 0 cannot happen for physical input
    (M >= I); if it does the call fails loudly.
    """
    V = core.require_physical(V)
    detm = _det_m(V)
    if np.any(detm <= 0.0):
        raise NumericalDomainError("det M <= 0 on physical input; internal inconsistency")
    return _scalar_or_array(_fidelity(detm))


def detm_values(eta, zeta, c1, c2):
    """det M from standard-form parameters:

    1 + 4 c1 c2 + (u + 2)(u - (c1 + c2)) - u (c1 + c2),  u = eta + zeta.

    Plain arithmetic on array-likes; no physicality requirement.
    """
    eta, zeta, c1, c2 = (np.asarray(v, dtype=float) for v in (eta, zeta, c1, c2))
    u = eta + zeta
    s = c1 + c2
    return _scalar_or_array(1.0 + 4.0 * c1 * c2 + (u + 2.0) * (u - s) - u * s)


def detm_epsilon_values(eta, zeta, c1, c2):
    """det M in the form 4 - eps(4 - eps) - (c1 - c2)^2 with
    eps = 1 - ((eta + zeta) - (c1 + c2)).

    In standard form Delta = 2((eta + zeta) - (c1 + c2)), so eps equals
    f_epr/2 whenever the state is EPR correlated; eps may be negative and
    the expression remains an algebraic identity with detm_values.
    """
    eta, zeta, c1, c2 = (np.asarray(v, dtype=float) for v in (eta, zeta, c1, c2))
    eps = 1.0 - ((eta + zeta) - (c1 + c2))
    return _scalar_or_array(4.0 - eps * (4.0 - eps) - (c1 - c2) ** 2)


def qt_epr_values(eta, zeta, c1, c2):
    """Recast teleportation bound: qt iff lhs < rhs with
    lhs = (eta + zeta) - (c1 + c2), rhs = sqrt(4 + (c1 - c2)^2) - 1.

    When c1 = c2 the rhs is exactly 1, so qt reduces to the EPR condition
    lhs < 1, i.e. Delta < 2.
    """
    eta, zeta, c1, c2 = (np.asarray(v, dtype=float) for v in (eta, zeta, c1, c2))
    lhs = (eta + zeta) - (c1 + c2)
    rhs = np.sqrt(4.0 + (c1 - c2) ** 2) - 1.0
    return lhs, rhs, lhs < rhs


@dataclass(frozen=True)
class CriteriaReport:
    """Per-state record of the teleportation-relevant quantities.

    Invariants (for reports built from physical states):
    epr_correlated iff delta_epr < 2; f_epr = max(0, 2 - delta_epr);
    qt iff det_m < 4 iff fidelity > 1/2; epr_correlated implies qt.
    Unphysical input yields nan values with all flags False.
    """

    delta_epr: float
    f_epr: float
    det_m: float
    fidelity: float
    entangled: bool
    epr_correlated: bool
    qt: bool


class Classification(Enum):
    UNPHYSICAL = "Unphysical"
    SEPARABLE = "Separable"
    ENTANGLED_NO_QT = "EntangledNoQT"
    QT_NO_EPR = "QTNoEPR"
    EPR_CORRELATED = "EPRCorrelated"


class Columns(NamedTuple):
    """Column arrays of evaluated states, one entry per matrix in the stack."""

    delta_epr: np.ndarray
    f_epr: np.ndarray
    det_m: np.ndarray
    fidelity: np.ndarray
    ppt_nu_minus: np.ndarray
    entangled: np.ndarray
    epr: np.ndarray
    qt: np.ndarray
    labels: np.ndarray


# the per-state output row, output name -> Columns field, in output order
_ROW_SCHEMA = {"delta_epr": "delta_epr", "f_epr": "f_epr", "det_m": "det_m",
               "fidelity": "fidelity", "entangled": "entangled", "epr": "epr", "qt": "qt",
               "class": "labels"}


def _row(cols) -> dict:
    """The output row of ``cols`` (anything with the Columns fields), by output name."""
    return {name: getattr(cols, field) for name, field in _ROW_SCHEMA.items()}


# the first true condition names the region; entangled and not QT otherwise
_PRECEDENCE = (
    Classification.SEPARABLE.value,
    Classification.EPR_CORRELATED.value,
    Classification.QT_NO_EPR.value,
)


def _evaluate(V: np.ndarray) -> Columns:
    """Columns of a (..., 4, 4) stack already known to be physical."""
    delta = _delta_raw(V)
    det_m = _det_m(V)
    nu = np.asarray(core.ppt_nu_minus(V))
    entangled = nu < 0.5 - PHYSICALITY_TOL
    epr = delta < 2.0
    qt = det_m < 4.0
    labels = np.select(
        [~entangled, epr, qt], _PRECEDENCE, Classification.ENTANGLED_NO_QT.value
    )
    return Columns(delta, _f_epr(delta), det_m, _fidelity(det_m), nu, entangled, epr, qt,
                   labels)


def _report(cols: Columns) -> tuple[CriteriaReport, Classification]:
    """Report and label of one evaluated matrix, as Python scalars."""
    report = CriteriaReport(
        delta_epr=float(cols.delta_epr),
        f_epr=float(cols.f_epr),
        det_m=float(cols.det_m),
        fidelity=float(cols.fidelity),
        entangled=bool(cols.entangled),
        epr_correlated=bool(cols.epr),
        qt=bool(cols.qt),
    )
    return report, Classification(str(cols.labels))


_UNPHYSICAL_ROW = Columns(math.nan, math.nan, math.nan, math.nan, math.nan,
                          False, False, False, Classification.UNPHYSICAL.value)


def classify(V):
    """Full report plus a mutually exclusive region label.

    Precedence: Unphysical; else Separable if not entangled (PPT); else
    EPRCorrelated if Delta < 2; else QTNoEPR if det M < 4; else
    EntangledNoQT.  The entangled flag is the PPT verdict; the
    determinant-form verdict is available via simon_inseparable.

    One 4x4 matrix gives a report of Python scalars and a Classification.
    A (..., 4, 4) stack gives a report whose fields are arrays of shape
    ``V.shape[:-2]`` and an array of label strings (``Classification``
    values); rows that are asymmetric, non-finite, beyond core.MAX_ENTRY or
    below the uncertainty bound read nan, False and "Unphysical".  Malformed
    input is folded into a single Unphysical report rather than raised.
    """
    try:
        V = np.asarray(V, dtype=float)
    except (ValueError, TypeError):
        return _report(_UNPHYSICAL_ROW)
    if V.ndim < 2 or V.shape[-2:] != (4, 4):
        return _report(_UNPHYSICAL_ROW)

    flat = V.reshape(-1, 4, 4)
    physical = np.all(np.abs(flat) <= core.MAX_ENTRY, axis=(1, 2))
    physical[physical] = core._physicality(flat[physical])[3]
    cols = _evaluate(flat[physical])
    full = []
    for col, fill in zip(cols, _UNPHYSICAL_ROW):
        out = np.full(physical.shape, fill, dtype=col.dtype)
        out[physical] = col
        full.append(out.reshape(V.shape[:-2]))
    cols = Columns(*full)
    if V.ndim == 2:
        return _report(cols)
    report = CriteriaReport(cols.delta_epr, cols.f_epr, cols.det_m, cols.fidelity,
                            cols.entangled, cols.epr, cols.qt)
    return report, cols.labels


def report_to_json(report: CriteriaReport) -> str:
    """Serialise a report with numbers at 17 significant digits."""
    return core.record_json(vars(report))
