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
covariance matrices into the output row, a dict of column arrays whose keys
are the output names in output order, and is the only place the label
precedence is written.  ``classify`` (one state or a stack),
``sweep.run_sweep`` (one call per chunk) and the CLI's ``analyze`` are views
over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import core
from .errors import NumericalDomainError

__all__ = [
    "CriteriaReport",
    "Classification",
    "LABELS",
    "epr_uncertainty",
    "epr_degree",
    "m_matrix",
    "fidelity",
    "detm_values",
    "detm_epsilon_values",
    "qt_epr_values",
    "classify",
]

def _delta_raw(V: np.ndarray) -> np.ndarray:
    # <d^2(x_a - x_b)> + <d^2(p_a + p_b)> straight from the entries
    return (
        V[..., 0, 0] + V[..., 2, 2] - 2.0 * V[..., 0, 2]
        + V[..., 1, 1] + V[..., 3, 3] + 2.0 * V[..., 1, 3]
    )


def _m_entries(V: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(m00, m01, m10, m11)`` of M = A - (C sz + sz C^T) + sz B sz + I from the
    entries of V, summed in the matrix expression's order.  The sigma_z products
    only multiply by +-1 and 0, which is exact, so each entry is bit-identical to
    the batched 2x2 matmuls (the trailing + I also clears their signed zeros)."""
    a01, a10, b01, b10 = V[..., 0, 1], V[..., 1, 0], V[..., 2, 3], V[..., 3, 2]
    c00, c01, c10, c11 = V[..., 0, 2], V[..., 0, 3], V[..., 1, 2], V[..., 1, 3]
    cross = c10 - c01  # both off-diagonal entries of C sz + sz C^T
    return (
        V[..., 0, 0] - (c00 + c00) + V[..., 2, 2] + 1.0,
        a01 - cross - b01 + 0.0,
        a10 - cross - b10 + 0.0,
        V[..., 1, 1] + (c11 + c11) + V[..., 3, 3] + 1.0,
    )


def _m_raw(V: np.ndarray) -> np.ndarray:
    return np.stack(_m_entries(V), axis=-1).reshape(V.shape[:-2] + (2, 2))


def _det_m(V: np.ndarray) -> np.ndarray:
    m00, m01, m10, m11 = _m_entries(V)
    return m00 * m11 - m01 * m10


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


# the label strings by class code: the kernel labels rows with int8 codes into
# this table, which the writers and ``classify`` look up
LABELS = np.array([c.value for c in Classification])
_CODE = {c: np.int8(i) for i, c in enumerate(Classification)}


# the first true condition names the region; entangled and not QT otherwise
_PRECEDENCE = (
    _CODE[Classification.SEPARABLE],
    _CODE[Classification.EPR_CORRELATED],
    _CODE[Classification.QT_NO_EPR],
)


def _evaluate(V: np.ndarray) -> dict:
    """The output row of a (..., 4, 4) stack already known to be physical: its
    column arrays by output name, in output order (``class`` as int8 codes into
    LABELS)."""
    delta = _delta_raw(V)
    det_m = _det_m(V)
    entangled = core._ppt_entangled(V)
    epr = delta < 2.0
    qt = det_m < 4.0
    codes = np.select([~entangled, epr, qt], _PRECEDENCE, _CODE[Classification.ENTANGLED_NO_QT])
    return {"delta_epr": delta, "f_epr": _f_epr(delta), "det_m": det_m,
            "fidelity": _fidelity(det_m), "entangled": entangled, "epr": epr, "qt": qt,
            "class": codes}


def _report(row: dict) -> tuple[CriteriaReport, Classification]:
    """Report and label of one evaluated matrix, as Python scalars."""
    *values, code = (np.asarray(v).item() for v in row.values())
    return CriteriaReport(*values), Classification(LABELS[code])


_UNPHYSICAL_ROW = {"delta_epr": math.nan, "f_epr": math.nan, "det_m": math.nan,
                   "fidelity": math.nan, "entangled": False, "epr": False, "qt": False,
                   "class": _CODE[Classification.UNPHYSICAL]}


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
    row = {}
    for name, col in _evaluate(flat[physical]).items():
        out = np.full(physical.shape, _UNPHYSICAL_ROW[name], dtype=col.dtype)
        out[physical] = col
        row[name] = out.reshape(V.shape[:-2])
    if V.ndim == 2:
        return _report(row)
    *values, codes = row.values()
    return CriteriaReport(*values), LABELS[codes]
