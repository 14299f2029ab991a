"""Two-mode Gaussian covariance matrices: validity, entanglement, standard form.

Conventions used throughout the package:

* quadrature ordering ``(x_a, p_a, x_b, p_b)``, so a two-mode covariance
  matrix is 4x4 with 2x2 blocks ``[[A, C], [C^T, B]]``;
* vacuum variance 1/2, i.e. ``V_vacuum = I/2`` and ``[x, p] = i`` with
  symplectic form ``Omega = J (+) J``, ``J = [[0, 1], [-1, 0]]``;
* a matrix is physical iff it is symmetric, positive definite and its
  smallest symplectic eigenvalue satisfies ``nu_minus >= 1/2 - 1e-10``.

All numeric kernels accept stacked input of shape ``(..., 4, 4)`` and
broadcast; all but ``simon_lhs``, which is exact and goes one matrix at a time,
run elementwise in numpy.
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

# partial transposition Lambda V Lambda, Lambda = diag(1, 1, 1, -1), as an elementwise sign mask
_PT = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])

PHYSICALITY_TOL = 1e-10
SYMMETRY_TOL = 1e-12
JSON_CONVENTION = "xpxp-vac-half"

# det V is quartic in the entries, so this bound keeps every determinant, sum
# and spectrum the package forms finite
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


def _spectrum(V: np.ndarray, valid=True) -> tuple[np.ndarray, ...]:
    """``(nu_minus, nu_plus, pt_nu_minus, physical, entangled)`` from one factor V = L L^T: V's
    symplectic pair, its partial transpose's nu_minus and the two verdicts, each written only
    here.  K = L^T Omega L has eigenvalues +-i nu: with p = (K01 + K23, K02 - K13, K03 + K12) and
    m = (K01 - K23, K02 + K13, K03 - K12), nu_plus = (|p| + |m|) / 2 and nu_minus = det L /
    nu_plus (det L = Pf K, capped at nu_plus, which it passes by rounding at a double
    eigenvalue), with no cancellation.  K01 = l00 l11 + b; Omega~ = J (+) -J flips mode b's
    terms, b and K23.  Williamson's theorem gives a spectrum only to a positive definite V, so
    all three read nan on rows that are not ``valid`` (symmetric at least: the factor reads the
    lower triangle) or not pd: a pivot <= 0 or a non-finite nu_plus.  V is physical iff
    nu_minus >= 1/2 - 1e-10, which nan fails (an indefinite V can have every |eigenvalue| of
    i Omega V above 1/2), and entangled iff physical and pt_nu_minus < 1/2 - 1e-10 (the PPT
    test).  Only +, -, *, / and sqrt touch the entries (np.square is x * x; x ** 2 on a numpy
    scalar is not), so a row gives the same bits alone as in a stack."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        l00 = np.sqrt(V[..., 0, 0])
        l10, l20, l30 = V[..., 1, 0] / l00, V[..., 2, 0] / l00, V[..., 3, 0] / l00
        l11 = np.sqrt(V[..., 1, 1] - l10 * l10)
        a = l00 * l11
        l21, l31 = (V[..., 2, 1] - l20 * l10) / l11, (V[..., 3, 1] - l30 * l10) / l11
        del l00, l10, l11
        b = l20 * l31 - l30 * l21
        l22 = np.sqrt(V[..., 2, 2] - l20 * l20 - l21 * l21)
        l32 = (V[..., 3, 2] - l30 * l20 - l31 * l21) / l22
        l33 = V[..., 3, 3] - l30 * l30 - l31 * l31 - l32 * l32
        k02, k12 = l20 * l32 - l30 * l22, l21 * l32 - l31 * l22
        del l30, l31, l32
        l33 = np.sqrt(l33)
        k03, k13, k23, det = l20 * l33, l21 * l33, l22 * l33, a * l22 * l33
        del l20, l21, l22, l33
        p2, p3, m2, m3 = (np.square(k02 - k13), np.square(k03 + k12),
                          np.square(k02 + k13), np.square(k03 - k12))
        del k02, k03, k12, k13
        def pair(k01, k23):  # both spectra add p2 + p3 and m2 + m3 after K01's term
            nu_plus = 0.5 * (np.sqrt(np.square(k01 + k23) + p2 + p3)
                             + np.sqrt(np.square(k01 - k23) + m2 + m3))
            return np.minimum(det / nu_plus, nu_plus), nu_plus
        nu_minus, nu_plus = pair(a + b, k23)
        pt_nu_minus = pair(a - b, -k23)[0]
    spectra = nu_minus, nu_plus, pt_nu_minus
    exists = valid & (det > 0.0) & (nu_plus < np.inf)
    if not np.all(exists):
        spectra = tuple(np.where(exists, nu, np.nan) for nu in spectra)
    cut = 0.5 - PHYSICALITY_TOL
    physical = spectra[0] >= cut
    return *spectra, physical, physical & (spectra[2] < cut)


def symplectic_eigenvalues(V) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(nu_minus, nu_plus)``, both nan for a matrix that is not symmetric and positive
    definite; stacked input gives stacked output."""
    V = _as_covmat(V)
    nm, np_ = _spectrum(V, _is_symmetric(V))[:2]
    return (float(nm), float(np_)) if nm.ndim == 0 else (nm, np_)


@dataclass(frozen=True)
class ValidityReport:
    symmetric: bool
    nu_minus: float
    nu_plus: float
    physical: bool


def validate(V) -> ValidityReport:
    """Check symmetry, positivity and the uncertainty bound nu_minus >= 1/2 - 1e-10; the
    spectrum reads nan (JSON null) unless V is symmetric and positive definite."""
    V = _as_covmat(V)
    if V.ndim != 2:
        raise InvalidInput("validate expects a single 4x4 matrix")
    symmetric = _is_symmetric(V)
    nm, np_, _, physical, _ = _spectrum(V, symmetric)
    return ValidityReport(symmetric=bool(symmetric), nu_minus=float(nm),
                          nu_plus=float(np_), physical=bool(physical))


def _physical_spectra(V: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_spectrum(V)``, raising PreconditionFailed unless every matrix is physical."""
    if not np.all(_is_symmetric(V)):
        raise PreconditionFailed("covariance matrix is not symmetric")
    spectra = _spectrum(V)
    if not np.all(spectra[3]):
        raise PreconditionFailed(
            "covariance matrix violates the uncertainty bound V > 0, nu_minus >= 1/2"
        )
    return spectra


def require_physical(V) -> np.ndarray:
    """Return ``V`` as an array, raising PreconditionFailed unless every
    matrix in the stack is a physical covariance matrix."""
    V = _as_covmat(V)
    _physical_spectra(V)
    return V


def partial_transpose(V) -> np.ndarray:
    """Flip the sign of the second mode's momentum: V -> Lambda V Lambda.

    Involution; input must be symmetric (shape and finiteness are checked
    as usual).
    """
    V = _as_covmat(V)
    if not np.all(_is_symmetric(V)):
        raise InvalidInput("partial_transpose expects a symmetric matrix")
    return V * _PT


def ppt_nu_minus(V) -> np.ndarray | float:
    """Smallest symplectic eigenvalue of the partial transpose, nan for a matrix that is not
    symmetric and positive definite."""
    V = _as_covmat(V)
    nm = _spectrum(V, _is_symmetric(V))[2]
    return float(nm) if nm.ndim == 0 else nm


# the column pairs of the 2x2 minors; minor k's complement in det V is minor 5 - k
_MINORS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def simon_lhs(V) -> np.ndarray | float:
    """Left-hand side 4 (det A + det B - 2 det C) - 16 det V of the determinant-based
    inseparability test (entangled iff > 1), correctly rounded.  Each entry is an integer over a
    common power of two s, so D~ = det A + det B - 2 det C (times s^2) and det V (times s^4,
    by Laplace over the 2x2 minors of rows 0-1 and 2-3) are exact integers, and one int / int
    rounds the value; MAX_ENTRY keeps it below 2.6e302, so that cannot overflow.  Python
    integers, one matrix at a time: about 16 us a matrix (Xeon, Python 3.11), and as much per
    row of a stack, which no program path passes.  The PPT verdict reads ``_spectrum``'s
    factor instead; the two verdicts differ only near the cut."""
    V = _as_covmat(V)
    out = []
    for row in V.reshape(-1, 16).tolist():
        ratios = [x.as_integer_ratio() for x in row]
        s = max(q for _, q in ratios)
        x = [p * (s // q) for p, q in ratios]
        r, t = ([x[o + i] * x[o + 4 + j] - x[o + j] * x[o + 4 + i] for i, j in _MINORS]
                for o in (0, 8))
        det = r[0] * t[5] - r[1] * t[4] + r[2] * t[3] + r[3] * t[2] - r[4] * t[1] + r[5] * t[0]
        s2 = s * s
        out.append((4 * (r[0] + t[5] - 2 * r[5]) * s2 - 16 * det) / (s2 * s2))
    return out[0] if V.ndim == 2 else np.array(out).reshape(V.shape[:-2])


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
    V = _as_covmat(V)
    *_, pt_nm, _, entangled = _physical_spectra(V)
    if V.ndim != 2:
        raise InvalidInput("simon_inseparable expects a single 4x4 matrix")
    return _verdict(V, float(pt_nm), bool(entangled))


def _verdict(V: np.ndarray, nm: float, entangled: bool) -> EntanglementVerdict:
    """Both tests on one physical matrix: the determinant form here, and ``_spectrum``'s PPT
    verdict ``entangled`` on its partial transpose's nu_minus nm."""
    lhs = simon_lhs(V)
    return EntanglementVerdict(
        simon_lhs=lhs,
        simon_entangled=lhs > 1.0,
        ppt_nu_minus=nm,
        ppt_entangled=entangled,
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
        su, sv = np.sign(_det2(U)), np.sign(_det2(Vt))  # flip each into a rotation
        Ra, Rb = (U * [1.0, su]).T, Vt * [[1.0], [sv]]
        d1, d2 = s[0], s[1] * su * sv

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
    except (ValueError, RecursionError) as exc:  # bad JSON, huge integers, deep nesting
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
    try:  # an integer literal past the float range overflows: not finite either
        V = np.array(m, dtype=float)
        finite = np.all(np.isfinite(V))
    except OverflowError:
        finite = False
    if not finite:
        raise InvalidInput('field "matrix" contains non-finite values')
    return V


def save_covmat(V, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(covmat_to_json(V) + "\n")


def load_covmat(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return covmat_from_json(fh.read())
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"not UTF-8 text: {exc}") from exc
