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
    "covmat_to_json",
    "covmat_from_json",
    "save_covmat",
    "load_covmat",
]

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA = np.block([[J2, np.zeros((2, 2))], [np.zeros((2, 2)), J2]])
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

    This eigen route gives every printed spectrum and the physicality rule;
    the evaluation kernel's PPT verdict takes the closed form in
    ``_ppt_entangled`` and comes here only on that function's fallback rows.
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


def _block_dets(V: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(det A, det B, det C, det V)`` from one set of 2x2 minors: det V is the
    Laplace expansion along rows (0, 1), six products of a minor of rows (0, 1)
    and the complementary minor of rows (2, 3), summed pairwise.  Each of the 24
    terms of det V carries the 2 roundings of each of its two minors, 1 of their
    product and at most 3 of the sum, so |fl(det V) - det V| <= gamma_8 per(|V|)
    <= gamma_8 |V|_F^4, and gamma_8 = 8u / (1 - 8u) is 4 eps to first order."""
    v = [[V[..., i, j] for j in range(4)] for i in range(4)]

    def minor(i, j, k):  # rows i, i + 1 and columns j, k
        return v[i][j] * v[i + 1][k] - v[i][k] * v[i + 1][j]

    det_a, det_c, det_b = minor(0, 0, 1), minor(0, 2, 3), minor(2, 2, 3)
    det_v = ((det_a * det_b - minor(0, 0, 2) * minor(2, 1, 3))
             + (minor(0, 0, 3) * minor(2, 1, 2) + minor(0, 1, 2) * minor(2, 0, 3))) + (
        det_c * minor(2, 0, 1) - minor(0, 1, 3) * minor(2, 0, 2))
    return det_a, det_b, det_c, det_v


def _ppt_entangled(V: np.ndarray) -> np.ndarray:
    """PPT verdict ``ppt_nu_minus(V) < 1/2 - 1e-10`` of a physical stack, from
    nu~^2 = 2 det V / (D + sqrt(disc)), D = det A + det B - 2 det C, disc = D^2 - 4 det V
    (``_block_dets``), with error at most 5 eps nu~^2 |V|_F^4 (1/det V + 1/disc), which
    also bounds the eigen route's.  The 5 is 4 + 1: det V's error of 4 eps |V|_F^4 moves
    nu~^2 by at most that times nu~^2 (1/det V + 1/disc), and rounding D and disc adds
    under eps nu~^2 |V|_F^4 / disc.  Rows within ten such bounds of the cut, or with
    det V <= 0, take the eigen route, so every verdict is the one the eigen route gives."""
    cut2 = (0.5 - PHYSICALITY_TOL) ** 2
    det_a, det_b, det_c, det = _block_dets(V)
    d = det_a + det_b - 2.0 * det_c
    disc = d * d - 4.0 * det
    norm4 = np.einsum("...ij,...ij->...", V, V) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        nu2 = 2.0 * det / (d + np.sqrt(disc))
        bound = 5.0 * np.finfo(float).eps * nu2 * norm4 * (1.0 / det + 1.0 / disc)
        sure = (det > 0.0) & (np.abs(nu2 - cut2) > 10.0 * bound)
    entangled = np.asarray(nu2 < cut2)
    if not np.all(sure):
        entangled[~sure] = ppt_nu_minus(V[~sure]) < 0.5 - PHYSICALITY_TOL
    return entangled


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
    return _verdict(V)


def _verdict(V: np.ndarray) -> EntanglementVerdict:
    """Both tests on one matrix already known to be physical."""
    lhs = float(simon_lhs(V))
    nm = float(ppt_nu_minus(V))
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
    return _canonical(V)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _canonical(V: np.ndarray) -> tuple[CanonicalParams, np.ndarray]:
    """``to_canonical`` of one 4x4 matrix already known to be physical."""
    A, B, C = V[:2, :2], V[2:, 2:], V[:2, 2:]
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

# the values of a flag column's uint8 view: flags are codes into this table
_FLAGS = np.array([False, True])


def _token_rule(v, fmt: str):
    """The function writing values like ``v`` as tokens, the one statement of
    the token rules: floats via fmt17, booleans 0/1 or true/false, strings
    (labels, identifiers) bare or quoted unescaped, None and dicts JSON only.
    The row writer's floats take ``_fmt17_tokens``, which writes what fmt17
    writes: in numpy for normal |x| in [2**-36, 2**51), through fmt17 one value
    at a time outside it."""
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


def json_token(v) -> str:
    """One value as a JSON token (see ``_token_rule``)."""
    return _token_rule(v, "json")(v)


# The exact window of the vectorised fmt17: normal floats with 2**-36 <= |x| < 2**51
# (about 1.5e-11 to 2.3e15).  Their 17-digit decimal exponent X lies in [-11, 15], so
# with k = 16 - X and x = M 2**E (M < 2**53) the digits are x 10**k = M 5**k / 2**s
# rounded half to even, where 5**k < 2**63 and the shift s = -(E + k) is in [1, 62].
# Zeros, subnormals, non-finite values and the rest go through fmt17 one at a time.
_WINDOW = (2.0**-36, 2.0**51)
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)


def _ceil_pow10(e: int) -> float:
    """The smallest float at or above 10**e."""
    num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
    c = num / den  # correctly rounded
    p, q = c.as_integer_ratio()
    return c if p * den >= num * q else math.nextafter(c, math.inf)


# |x| >= 10**e exactly iff |x| >= _TEN[e + 12], for e in [-12, 17]
_TEN = np.array([_ceil_pow10(e) for e in range(-12, 18)])


def _layout(x: int) -> list:
    """The rows of ``_fmt17_block``'s character matrix that spell a %.17g token
    with decimal exponent x in [-11, 15]: 0 the sign, 1-17 the digits, 18 the
    point, 19-28 '0' to '9', 29 'e', 30 '-'."""
    if x >= 0:  # ddd.ddd
        return [0, *range(1, x + 2), 18, *range(x + 2, 18)]
    if x >= -4:  # 0.00ddd
        return [0, 19, 18, *[19] * (-x - 1), *range(1, 18)]
    return [0, 1, 18, *range(2, 18), 29, 30, 19 + -x // 10, 19 + -x % 10]  # d.ddde-XX


_LAYOUTS = [_layout(x) for x in range(-11, 16)]
_CONSTANT_ROWS = np.frombuffer(b"0123456789e-", np.uint8)[:, None]
_DIGIT_ROWS = np.arange(17, dtype=np.uint8)[:, None]
_LOW32, _U32, _U64, _U1 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(64), np.uint64(1)
_E8, _E16 = np.uint64(10**8), np.uint64(10**16)
# values per character matrix, which then holds a few hundred kB
_FMT_BLOCK = 4096


def _fmt17_tokens(values: np.ndarray, before: str = "", after: str = "") -> np.ndarray:
    """``before + fmt17(v) + after`` for each value of a 1-D float array, byte for
    byte, as an object array.  Values in ``_WINDOW`` are formatted by
    ``_fmt17_block`` in blocks of one decimal exponent after another; the rest
    one at a time by fmt17."""
    x = np.asarray(values, dtype=np.float64)
    tokens = np.empty(x.size, dtype=object)
    a = np.abs(x)
    inside = (a >= _WINDOW[0]) & (a < _WINDOW[1])
    outside = np.flatnonzero(~inside)
    tokens[outside] = [before + fmt17(v) + after for v in x[outside].tolist()]
    at = np.flatnonzero(inside)
    a = a[at]
    # the decimal exponent floor(log10 |x|), exact after one step against the powers of ten
    e10 = np.floor(np.log10(a)).astype(np.int8)
    up, down = a >= _TEN[e10 + 13], a < _TEN[e10 + 12]
    e10 += up
    e10 -= down
    order = np.argsort(e10, kind="stable")
    at, e10 = at[order], e10[order]
    head, tail = before.encode(), after.encode()
    for lo in range(0, at.size, _FMT_BLOCK):
        block = at[lo:lo + _FMT_BLOCK]
        tokens[block] = _fmt17_block(x[block], e10[lo:lo + _FMT_BLOCK], head, tail)
    return tokens


def _fmt17_block(x: np.ndarray, e10: np.ndarray, head: bytes, tail: bytes) -> list[str]:
    """The tokens of values in ``_WINDOW`` with decimal exponents ``e10``, each
    between the UTF-8 ``head`` and ``tail``.  The 17 digits come from a 128-bit
    product in 32-bit limbs, then a shift with a half bit and a sticky bit; they
    go into a character matrix, one row per character and one column per value,
    whose trailing fractional zeros become NULs; each run of one exponent is laid
    out by one row permutation, and the NULs are dropped from the joined bytes."""
    n = x.size
    k = 16 - e10.astype(np.intp)
    m, e = np.frexp(np.abs(x))
    mant = (m * 2.0**53).astype(np.uint64)
    shift = (53 - k - e).astype(np.uint64)
    p = _POW5[k]
    ml, mh, pl, ph = mant & _LOW32, mant >> _U32, p & _LOW32, p >> _U32
    ll, lh, hl = ml * pl, ml * ph, mh * pl
    mid = (ll >> _U32) + (lh & _LOW32) + (hl & _LOW32)
    low = (mid << _U32) | (ll & _LOW32)  # mant * p = high 2**64 + low
    high = mh * ph + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)
    d = (high << (_U64 - shift)) | (low >> shift)
    half = (low >> (shift - _U1)) & _U1
    sticky = (low & ((_U1 << (shift - _U1)) - _U1)) != 0
    # no float below a power of ten in the window rounds up to it at 17 digits (checked
    # on the largest float below each), so d < 10**17 and e10 stands
    d += half & ((d | sticky) & _U1)

    chars = np.empty((31, n), np.uint8)
    chars[0] = (x < 0).view(np.uint8) * np.uint8(ord("-"))
    chars[19:] = _CONSTANT_ROWS
    digits = chars[1:18]
    digits[0] = d // _E16
    rest = d - digits[0] * _E16
    v = np.empty((2, n), np.uint32)
    v[0] = rest // _E8
    v[1] = rest - v[0] * _E8
    halves = digits[1:].reshape(2, 8, n)
    for j in range(7, -1, -1):
        q = v // np.uint32(10)
        halves[:, j] = v - q * np.uint32(10)
        v = q
    last = (_DIGIT_ROWS * (digits != 0)).max(axis=0)  # the last non-zero digit
    digits += ord("0")
    digits *= _DIGIT_ROWS <= np.maximum(last, e10)

    runs = [0, *(np.flatnonzero(np.diff(e10)) + 1).tolist(), n]
    width = max(len(_LAYOUTS[e10[r] + 11]) for r in runs[:-1])
    start = len(head)
    out = np.zeros((start + width + len(tail) + 1, n), np.uint8)
    out[:start] = np.frombuffer(head, np.uint8)[:, None]
    out[start + width:-1] = np.frombuffer(tail, np.uint8)[:, None]
    out[-1] = ord("\n")
    for r0, r1 in zip(runs, runs[1:]):
        layout = _LAYOUTS[e10[r0] + 11]
        run = chars[:, r0:r1]
        # a point with only NULs after it is not written
        run[18] = (run[layout[layout.index(18) + 1]] != 0).view(np.uint8) * np.uint8(ord("."))
        out[start:start + len(layout), r0:r1] = run[layout]
    text = out.T.tobytes().translate(None, b"\0").decode()
    del out, chars
    return text.split("\n")[:-1]


def _column(column: np.ndarray, fmt: str, before: str = "", after: str = "",
            table: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One column's tokens, each written between ``before`` and ``after``, and its
    rows' codes into them.  Each distinct value is formatted once: floats (told
    apart by their bits, so 0.0 and -0.0 keep their own tokens) by
    ``_fmt17_tokens``, exact in numpy for |x| in [2**-36, 2**51) and fmt17 one at a
    time outside it, and other values by ``_token_rule``.  A flag column is codes
    into ``_FLAGS`` through its uint8 view.  With a ``table`` the column holds
    integer codes into it; a table no longer than the column is formatted whole
    and indexed by the codes, with no sort."""
    if column.dtype == bool:
        column, table = column.view(np.uint8), _FLAGS
    if table is not None and table.size <= column.size:
        values, codes = table, column
    else:
        key = column.view(f"i{column.itemsize}") if column.dtype.kind == "f" else column
        distinct, codes = np.unique(key, return_inverse=True)
        values = distinct.view(column.dtype) if table is None else table[distinct]
    if values.dtype.kind == "f":
        return _fmt17_tokens(values, before, after), codes
    values = values.tolist()
    rule = _token_rule(values[0], fmt)
    return np.array([before + rule(v) + after for v in values], dtype=object), codes


# rows per join.  Joined whole, a chunk's rows and its text sat beside its float
# tokens: the 501^2 bs JSON CLI sweep peaked at 139 MB RSS, against 84-85 MB here
_ROW_BLOCK = 1024


def _row_blocks(columns: dict, fmt: str, tables: dict | None = None):
    """Text rows of equal-length, non-empty 1-D columns, keys in dict order, in
    lists of up to _ROW_BLOCK rows: CSV values or one-line JSON objects.  A
    column named in ``tables`` holds integer codes into the table given for it.
    Each row is one join of its columns' tokens, the JSON keys and braces
    already folded into each column's tokens, and each distinct value of a
    column is formatted once (see ``_column``; floats exactly as fmt17,
    vectorised for |x| in [2**-36, 2**51))."""
    tables = tables or {}
    if fmt == "csv":
        sep, before, after = ",", [""] * len(columns), [""] * len(columns)
    else:
        sep, before, after = ", ", [f'"{k}": ' for k in columns], [""] * len(columns)
        before[0], after[-1] = "{" + before[0], "}"
    tokens = [_column(column, fmt, b, a, tables.get(name))
              for (name, column), b, a in zip(columns.items(), before, after)]
    for lo in range(0, tokens[0][1].size, _ROW_BLOCK):
        yield list(map(sep.join, zip(*[column[codes[lo:lo + _ROW_BLOCK]].tolist()
                                        for column, codes in tokens])))


def record_json(fields: dict) -> str:
    """A field dict as a one-line JSON object, keys in dict order."""
    return "{" + ", ".join(f'"{k}": {json_token(v)}' for k, v in fields.items()) + "}"


def record_csv(fields: dict) -> str:
    """A field dict as a CSV header line and one row (booleans as 0/1)."""
    values = [np.asarray(v).tolist() for v in fields.values()]
    return ",".join(fields) + "\n" + ",".join(_token_rule(v, "csv")(v) for v in values)


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
