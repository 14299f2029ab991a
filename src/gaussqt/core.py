"""Two-mode Gaussian covariance matrices: validity, entanglement, standard form.

Conventions used throughout the package:

* quadrature ordering ``(x_a, p_a, x_b, p_b)``, so a two-mode covariance
  matrix is 4x4 with 2x2 blocks ``[[A, C], [C^T, B]]``;
* vacuum variance 1/2, i.e. ``V_vacuum = I/2`` and ``[x, p] = i`` with
  symplectic form ``Omega = J (+) J``, ``J = [[0, 1], [-1, 0]]``;
* a matrix is physical iff it is symmetric, positive definite and its
  smallest symplectic eigenvalue satisfies ``nu_minus >= 1/2 - 1e-10``.

All numeric kernels accept stacked input of shape ``(..., 4, 4)`` and
broadcast, so bulk property checks run at numpy speed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalDomainError, PreconditionFailed

__all__ = [
    "J2",
    "OMEGA",
    "SIGMA_Z",
    "VACUUM",
    "PHYSICALITY_TOL",
    "MAX_ENTRY",
    "SYMMETRY_TOL",
    "JSON_CONVENTION",
    "ValidityReport",
    "EntanglementVerdict",
    "CanonicalParams",
    "blocks",
    "symplectic_eigenvalues",
    "validate",
    "require_physical",
    "partial_transpose",
    "ppt_nu_minus",
    "simon_lhs",
    "simon_inseparable",
    "from_canonical",
    "to_canonical",
    "fmt17",
    "json_token",
    "record_json",
    "record_csv",
    "rows",
    "covmat_to_json",
    "covmat_from_json",
    "save_covmat",
    "load_covmat",
]

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA = np.block([[J2, np.zeros((2, 2))], [np.zeros((2, 2)), J2]])
SIGMA_Z = np.diag([1.0, -1.0])
VACUUM = 0.5 * np.eye(4)

# mode-b momentum sign flip implementing partial transposition
_PT = np.diag([1.0, 1.0, 1.0, -1.0])

PHYSICALITY_TOL = 1e-10
SYMMETRY_TOL = 1e-12
JSON_CONVENTION = "xpxp-vac-half"

# det V is quartic in the entries (and LU pivots can grow 8-fold), so this
# bound keeps every determinant, sum and spectrum the package forms finite
MAX_ENTRY = 1e75


def _as_covmat(V, name: str = "V") -> np.ndarray:
    V = np.asarray(V, dtype=float)
    if V.ndim < 2 or V.shape[-2:] != (4, 4):
        raise InvalidInput(f"{name} must have shape (..., 4, 4), got {V.shape}")
    if not np.all(np.abs(V) <= MAX_ENTRY):
        raise InvalidInput(f"{name} entries must be finite and within ±{MAX_ENTRY:g}")
    return V


def _det2(M: np.ndarray) -> np.ndarray:
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def _is_symmetric(V: np.ndarray) -> np.ndarray:
    return np.max(np.abs(V - np.swapaxes(V, -1, -2)), axis=(-1, -2)) <= SYMMETRY_TOL


def blocks(V) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split ``V`` into the 2x2 blocks ``(A, B, C)`` with V = [[A, C], [C^T, B]]."""
    V = _as_covmat(V)
    return V[..., :2, :2], V[..., 2:, 2:], V[..., :2, 2:]


def _sym_eigs(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic eigenvalue pair: absolute values of the eigenvalues of
    i Omega V, deduplicated by averaging the (+/-) partners.

    The eigen-decomposition route is preferred over the block-determinant
    closed form nu^2 = (Delta +- sqrt(Delta^2 - 4 det V))/2 because the
    discriminant cancels catastrophically for near-pure states, costing
    half the available precision right where the physicality threshold
    bites.
    """
    a = np.sort(np.abs(np.linalg.eigvals(OMEGA @ V)), axis=-1)
    nu_minus = 0.5 * (a[..., 0] + a[..., 1])
    nu_plus = 0.5 * (a[..., 2] + a[..., 3])
    return nu_minus, nu_plus


def symplectic_eigenvalues(V) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(nu_minus, nu_plus)``; stacked input gives stacked output."""
    V = _as_covmat(V)
    nm, np_ = _sym_eigs(V)
    if nm.ndim == 0:
        return float(nm), float(np_)
    return nm, np_


@dataclass(frozen=True)
class ValidityReport:
    symmetric: bool
    nu_minus: float
    nu_plus: float
    physical: bool


def _physicality(V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(symmetric, nu_minus, nu_plus, physical)`` of a finite stack: the one
    statement of the physicality rule, nu_minus >= 1/2 - 1e-10 on a
    symmetric positive definite matrix (an indefinite matrix can have every
    symplectic eigenvalue above 1/2)."""
    symmetric = _is_symmetric(V)
    lam = np.linalg.eigvalsh(V)
    positive = lam[..., 0] > -PHYSICALITY_TOL * lam[..., -1]
    nm, np_ = _sym_eigs(V)
    return symmetric, nm, np_, symmetric & positive & (nm >= 0.5 - PHYSICALITY_TOL)


def validate(V) -> ValidityReport:
    """Check symmetry, positivity and the uncertainty bound nu_minus >= 1/2 - 1e-10."""
    V = _as_covmat(V)
    if V.ndim != 2:
        raise InvalidInput("validate expects a single 4x4 matrix")
    symmetric, nm, np_, physical = _physicality(V)
    return ValidityReport(symmetric=bool(symmetric), nu_minus=float(nm),
                          nu_plus=float(np_), physical=bool(physical))


def require_physical(V) -> np.ndarray:
    """Return ``V`` as an array, raising PreconditionFailed unless every
    matrix in the stack is a physical covariance matrix."""
    V = _as_covmat(V)
    symmetric, _, _, physical = _physicality(V)
    if not np.all(symmetric):
        raise PreconditionFailed("covariance matrix is not symmetric")
    if not np.all(physical):
        raise PreconditionFailed(
            "covariance matrix violates the uncertainty bound V > 0, nu_minus >= 1/2"
        )
    return V


def partial_transpose(V) -> np.ndarray:
    """Flip the sign of the second mode's momentum: V -> Lambda V Lambda.

    Involution; input must be symmetric (shape and finiteness are checked
    as usual).
    """
    V = _as_covmat(V)
    if not np.all(_is_symmetric(V)):
        raise InvalidInput("partial_transpose expects a symmetric matrix")
    return _PT @ V @ _PT


def ppt_nu_minus(V) -> np.ndarray | float:
    """Smallest symplectic eigenvalue of the partial transpose."""
    V = _as_covmat(V)
    nm, _ = _sym_eigs(_PT @ V @ _PT)
    return float(nm) if nm.ndim == 0 else nm


def simon_lhs(V) -> np.ndarray | float:
    """Left-hand side 4*(det A + det B - 2 det C) - 16 det V of the
    determinant-based inseparability test (entangled iff > 1)."""
    V = _as_covmat(V)
    A, B, C = V[..., :2, :2], V[..., 2:, 2:], V[..., :2, 2:]
    delta_pt = _det2(A) + _det2(B) - 2.0 * _det2(C)
    out = 4.0 * delta_pt - 16.0 * np.linalg.det(V)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EntanglementVerdict:
    simon_lhs: float
    simon_entangled: bool
    ppt_nu_minus: float
    ppt_entangled: bool


def simon_inseparable(V) -> EntanglementVerdict:
    """Run both inseparability tests on one physical state.

    The determinant form and the partial-transpose symplectic eigenvalue
    are equivalent for physical states (det V >= 1/16 forces nu_plus of
    the partial transpose above 1/2 whenever nu_minus is below), so the
    two booleans can only differ by the 1e-10 guard band at the boundary.
    """
    V = require_physical(V)
    if V.ndim != 2:
        raise InvalidInput("simon_inseparable expects a single 4x4 matrix")
    return _verdict(V, ppt_nu_minus(V))


def _verdict(V: np.ndarray, ppt_nu: float) -> EntanglementVerdict:
    """Both tests on one physical state whose PPT eigenvalue is known."""
    lhs = float(simon_lhs(V))
    nm = float(ppt_nu)
    return EntanglementVerdict(
        simon_lhs=lhs,
        simon_entangled=lhs > 1.0,
        ppt_nu_minus=nm,
        ppt_entangled=nm < 0.5 - PHYSICALITY_TOL,
    )


@dataclass(frozen=True)
class CanonicalParams:
    """Standard-form parameters: A = eta*I, B = zeta*I, C = diag(c1, -c2).

    ``eta`` and ``zeta`` are at least 1/2 for any physical state; ``c1``
    and ``c2`` are unrestricted so the closed-form det M expressions can
    be evaluated on formal (not necessarily physical) parameter values.
    Normalisation: c1 >= |c2| >= 0, and c2 >= 0 exactly when det C <= 0.
    """

    eta: float
    zeta: float
    c1: float
    c2: float

    def __post_init__(self):
        for name in ("eta", "zeta", "c1", "c2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidInput(f"{name} must be finite")
        if self.eta < 0.5 - 1e-9 or self.zeta < 0.5 - 1e-9:
            raise InvalidInput("eta and zeta must be >= 1/2")


def from_canonical(p: CanonicalParams) -> np.ndarray:
    """Covariance matrix with blocks A = eta*I, B = zeta*I, C = diag(c1, -c2)."""
    e, z, c1, c2 = p.eta, p.zeta, p.c1, p.c2
    return np.array(
        [
            [e, 0.0, c1, 0.0],
            [0.0, e, 0.0, -c2],
            [c1, 0.0, z, 0.0],
            [0.0, -c2, 0.0, z],
        ]
    )


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _mode_reduction(M: np.ndarray) -> np.ndarray:
    """Single-mode symplectic S with S M S^T = sqrt(det M) * I.

    Uses the rotation of smallest angle (folded into (-pi/4, pi/4]) that
    diagonalises M, followed by a pure squeezer.  A diagonal M therefore
    reduces with no rotation at all, and the identity maps to itself.
    """
    N = M / np.sqrt(_det2(M))
    theta = 0.5 * math.atan2(2.0 * N[0, 1], N[0, 0] - N[1, 1])
    if theta > math.pi / 4:
        theta -= math.pi / 2
    elif theta <= -math.pi / 4:
        theta += math.pi / 2
    R = _rot(theta)
    D = R.T @ N @ R
    return np.diag(1.0 / np.sqrt(np.diag(D))) @ R.T


# rotation by pi/2; conjugating diag(d1, d2) with it gives diag(d2, d1)
_SWAP = np.array([[0.0, -1.0], [1.0, 0.0]])


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def to_canonical(V) -> tuple[CanonicalParams, np.ndarray]:
    """Reduce a physical state to standard form by local symplectics.

    Returns ``(params, S)`` with ``S V S^T`` equal (to float precision) to
    ``from_canonical(params)``.  The construction is deterministic:
    per-mode reduction uses minimal-angle rotations, the correlation
    block is left untouched when already diagonal, and the remaining
    freedom is fixed by a mode-local pi/2 rotation pair (reordering
    |c1| >= |c2|) and a pi rotation on mode a (making c1 >= 0).  States
    already in standard form come back with S = identity.
    """
    V = require_physical(V)
    if V.ndim != 2:
        raise InvalidInput("to_canonical expects a single 4x4 matrix")
    A, B, C = blocks(V)
    Sa = _mode_reduction(A)
    Sb = _mode_reduction(B)
    eta = float(np.sqrt(_det2(A)))
    zeta = float(np.sqrt(_det2(B)))
    C1 = Sa @ C @ Sb.T
    # entries near the float range overflow the block determinants; every
    # such failure propagates into these three values
    if not (math.isfinite(eta) and math.isfinite(zeta) and np.all(np.isfinite(C1))):
        raise NumericalDomainError("covariance entries too large for the standard-form reduction")

    scale = max(1.0, float(np.max(np.abs(C1))))
    if max(abs(C1[0, 1]), abs(C1[1, 0])) <= 1e-12 * scale:
        Ra = np.eye(2)
        Rb = np.eye(2)
        d1, d2 = C1[0, 0], C1[1, 1]
    else:
        U, s, Vt = np.linalg.svd(C1)
        d1, d2 = s[0], s[1]
        if np.linalg.det(U) < 0:
            U = U.copy()
            U[:, 1] *= -1.0
            d2 = -d2
        if np.linalg.det(Vt) < 0:
            Vt = Vt.copy()
            Vt[1, :] *= -1.0
            d2 = -d2
        Ra, Rb = U.T, Vt

    if abs(d2) > abs(d1):
        Ra = _SWAP @ Ra
        Rb = _SWAP @ Rb
        d1, d2 = d2, d1
    if d1 < 0:
        Ra = -Ra
        d1, d2 = -d1, -d2

    Sa = Ra @ Sa
    Sb = Rb @ Sb
    S = np.zeros((4, 4))
    S[:2, :2] = Sa
    S[2:, 2:] = Sb
    params = CanonicalParams(eta=eta, zeta=zeta, c1=float(d1), c2=float(-d2))
    return params, S


def fmt17(x) -> str:
    """Float as a JSON token at 17 significant digits; non-finite becomes null."""
    x = float(x)
    return format(x, ".17g") if math.isfinite(x) else "null"


_BOOLS = {"csv": {False: "0", True: "1"}, "json": {False: "false", True: "true"}}


def _token_rule(v, fmt: str):
    """The function writing values like ``v`` as tokens, the one statement of
    the token rules: floats via fmt17, booleans 0/1 or true/false, strings
    (labels, identifiers) bare or quoted unescaped, None and dicts JSON only."""
    if v is None:
        return lambda _: "null"
    if isinstance(v, (bool, np.bool_)):
        return _BOOLS[fmt].__getitem__
    if isinstance(v, str):
        return str if fmt == "csv" else '"{}"'.format
    if isinstance(v, int):
        return str
    if isinstance(v, dict):
        return record_json
    return fmt17


def _template(names, fmt: str) -> str:
    """One %s per field: comma-separated values, or a one-line JSON object."""
    if fmt == "csv":
        return ",".join(["%s"] * len(names))
    return "{" + ", ".join(f'"{k}": %s' for k in names) + "}"


def json_token(v) -> str:
    """One value as a JSON token (see ``_token_rule``)."""
    return _token_rule(v, "json")(v)


def rows(columns: dict, fmt: str) -> list[str]:
    """Text rows of equal-length, non-empty 1-D columns, keys in dict order:
    CSV values or one-line JSON objects.  Each column is formatted once."""
    template = _template(columns, fmt)
    values = [column.tolist() for column in columns.values()]
    return [template % row for row in zip(*(map(_token_rule(v[0], fmt), v) for v in values))]


def record_json(fields: dict) -> str:
    """A field dict as a one-line JSON object, keys in dict order."""
    return _template(fields, "json") % tuple(map(json_token, fields.values()))


def record_csv(fields: dict) -> str:
    """A field dict as a CSV header line and one row (booleans as 0/1)."""
    row = rows({k: np.atleast_1d(v) for k, v in fields.items()}, "csv")[0]
    return ",".join(fields) + "\n" + row


def covmat_to_json(V) -> str:
    """Serialise one covariance matrix to the package's JSON schema."""
    V = _as_covmat(V)
    if V.ndim != 2:
        raise InvalidInput("covmat_to_json expects a single 4x4 matrix")
    body = ",\n    ".join("[" + ", ".join(map(fmt17, row)) + "]" for row in V.tolist())
    return f'{{\n  "convention": "{JSON_CONVENTION}",\n  "matrix": [\n    {body}\n  ]\n}}'


def covmat_from_json(text: str) -> np.ndarray:
    """Parse the covariance-matrix JSON schema, naming the offending field
    in every error message."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidInput("top level must be a JSON object")
    if "convention" not in obj:
        raise InvalidInput('missing field "convention"')
    if obj["convention"] != JSON_CONVENTION:
        raise InvalidInput(
            f'field "convention" must be "{JSON_CONVENTION}", got {obj["convention"]!r}'
        )
    if "matrix" not in obj:
        raise InvalidInput('missing field "matrix"')
    m = obj["matrix"]
    ok = (
        isinstance(m, list)
        and len(m) == 4
        and all(isinstance(r, list) and len(r) == 4 for r in m)
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for r in m for x in r)
    )
    if not ok:
        raise InvalidInput('field "matrix" must be a 4x4 array of numbers')
    V = np.array(m, dtype=float)
    if not np.all(np.isfinite(V)):
        raise InvalidInput('field "matrix" contains non-finite values')
    return V


def save_covmat(V, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(covmat_to_json(V) + "\n")


def load_covmat(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return covmat_from_json(fh.read())
