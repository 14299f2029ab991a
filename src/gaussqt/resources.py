"""Resource-state families and their analytic entanglement/QT thresholds.

Two families are provided:

* two-mode squeezed thermal states (TMST) with squeeze parameter r and
  thermal parameters k_i = n_i + 1/2, already in standard form with
  eta = mu^2 k1 + nu^2 k2, zeta = nu^2 k1 + mu^2 k2, c1 = c2 =
  mu nu (k1 + k2), mu = cosh r, nu = sinh r;
* beam-splitter outputs: a single-mode squeezed thermal state
  sigma = diag(k e^{-2r}, k e^{2r}) mixed with vacuum on a transmittance-T
  beam splitter, computed as the explicit product S_BS (sigma (+) I/2) S_BS^T.

The squeezers are the standard Bogoliubov transformations, with sign
conventions such that the TMST correlations sit in C = c sigma_z and the
single-mode input is squeezed in x.  Entanglement of the TMST switches on
at r_ent (a closed form in k1, k2), EPR correlation and teleportation
capability together at r_qt = ln(k1 + k2)/2, and the beam-splitter output
is entangled exactly when the input is quadrature squeezed, r > ln(2k)/2.

``tmst_covmat`` and ``bs_covmat`` are the constructors.  ``TmstSpec``/``tmst``
and ``BsSpec``/``bs_resource`` wrap them for callers holding a spec object
(perfbench's output checks); ``gaussqt`` does not export them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

__all__ = [
    "TmstSpec",
    "BsSpec",
    "tmst",
    "tmst_covmat",
    "bs_resource",
    "bs_covmat",
    "single_mode_sth",
    "r_ent_threshold",
    "r_qt_threshold",
    "nonclassicality_threshold",
]


def _checked(x, ok, message: str) -> np.ndarray:
    # the one domain check of each family parameter: non-numeric, non-finite or
    # out-of-range input raises the parameter's InvalidInput message
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInput(message) from None
    if not np.all(np.isfinite(x) & ok(x)):
        raise InvalidInput(message)
    return x


def _check_k(k, name: str = "k") -> np.ndarray:
    return _checked(k, lambda k: k >= 0.5, f"{name} must be >= 1/2 (thermal occupation >= 0)")


def _check_r(r) -> np.ndarray:
    return _checked(r, lambda r: r >= 0, "squeeze parameter r must be >= 0")


def _check_T(T) -> np.ndarray:
    return _checked(T, lambda T: (T > 0) & (T < 1), "transmittance T must lie strictly in (0, 1)")


def _require_finite(x: np.ndarray, names: str, what: str) -> np.ndarray:
    # the callers run under np.errstate(over="ignore", invalid="ignore"), so
    # an overflow surfaces here as one named error instead of numpy warnings
    if not np.all(np.isfinite(x)):
        raise InvalidInput(f"{names} too large: {what} overflows")
    return x


@dataclass(frozen=True)
class TmstSpec:
    """Two-mode squeezed thermal state parameters (r >= 0, k1, k2 >= 1/2)."""

    r: float
    k1: float
    k2: float

    def __post_init__(self):
        _check_r(self.r)
        _check_k(self.k1, "k1")
        _check_k(self.k2, "k2")


@dataclass(frozen=True)
class BsSpec:
    """Beam-splitter resource parameters: single-mode squeeze r >= 0,
    thermal parameter k >= 1/2, transmittance T strictly inside (0, 1)."""

    r: float
    k: float
    T: float

    def __post_init__(self):
        _check_r(self.r)
        _check_k(self.k)
        _check_T(self.T)

    @property
    def nonclassical_input(self) -> bool:
        """True when the input beam is quadrature squeezed: r > ln(2k)/2."""
        return self.r > 0.5 * math.log(2.0 * self.k)


@np.errstate(over="ignore", invalid="ignore")
def tmst_covmat(r, k1, k2) -> np.ndarray:
    """TMST covariance matrix; array arguments broadcast to a stack."""
    r = _check_r(r)
    k1 = _check_k(k1, "k1")
    k2 = _check_k(k2, "k2")
    r, k1, k2 = np.broadcast_arrays(r, k1, k2)
    mu2 = np.cosh(r) ** 2
    nu2 = np.sinh(r) ** 2
    eta = mu2 * k1 + nu2 * k2
    zeta = nu2 * k1 + mu2 * k2
    c = 0.5 * np.sinh(2.0 * r) * (k1 + k2)
    V = np.zeros(np.shape(r) + (4, 4))
    V[..., 0, 0] = eta
    V[..., 1, 1] = eta
    V[..., 2, 2] = zeta
    V[..., 3, 3] = zeta
    V[..., 0, 2] = c
    V[..., 2, 0] = c
    V[..., 1, 3] = -c
    V[..., 3, 1] = -c
    return _require_finite(V, "r, k1 or k2", "the covariance matrix")


def tmst(spec: TmstSpec) -> np.ndarray:
    """Covariance matrix of the two-mode squeezed thermal state.

    Already in standard form; its symplectic eigenvalues are (k1, k2)
    for every r because squeezing is a symplectic conjugation of the
    thermal product diag(k1, k1, k2, k2).
    """
    return tmst_covmat(spec.r, spec.k1, spec.k2)


@np.errstate(over="ignore", invalid="ignore")
def single_mode_sth(r, k) -> np.ndarray:
    """Squeezed thermal mode sigma = diag(k e^{-2r}, k e^{2r}).

    The x quadrature is the squeezed one; det sigma = k^2 independent
    of r.  Quadrature squeezed (nonclassical) iff k e^{-2r} < 1/2.
    """
    r = _check_r(r)
    k = _check_k(k)
    r, k = np.broadcast_arrays(r, k)
    sig = np.zeros(np.shape(r) + (2, 2))
    sig[..., 0, 0] = k * np.exp(-2.0 * r)
    sig[..., 1, 1] = k * np.exp(2.0 * r)
    return _require_finite(sig, "r or k", "the squeezed thermal mode")


@np.errstate(over="ignore", invalid="ignore")
def bs_covmat(r, k, T) -> np.ndarray:
    """Beam-splitter output covariance; array arguments broadcast.

    Built as the explicit symplectic product S_BS (sigma (+) I/2) S_BS^T
    with S_BS = [[sqrt(T) I, sqrt(1-T) I], [-sqrt(1-T) I, sqrt(T) I]].
    """
    r = _check_r(r)
    k = _check_k(k)
    T = _check_T(T)
    r, k, T = np.broadcast_arrays(r, k, T)
    sig = single_mode_sth(r, k)

    Vin = np.zeros(np.shape(r) + (4, 4))
    Vin[..., :2, :2] = sig
    Vin[..., 2, 2] = 0.5
    Vin[..., 3, 3] = 0.5

    rt = np.sqrt(T)
    rr = np.sqrt(1.0 - T)
    S = np.zeros(np.shape(r) + (4, 4))
    for i in range(2):
        S[..., i, i] = rt
        S[..., i, i + 2] = rr
        S[..., i + 2, i] = -rr
        S[..., i + 2, i + 2] = rt
    out = S @ Vin @ np.swapaxes(S, -1, -2)
    # matmul accumulates (i,j) and (j,i) in different orders; average the
    # ulp-level residue away so downstream symmetry checks are exact
    out = 0.5 * (out + np.swapaxes(out, -1, -2))
    return _require_finite(out, "r or k", "the covariance matrix")


def bs_resource(spec: BsSpec) -> np.ndarray:
    """Covariance matrix of the beam-splitter output state.

    PPT-entangled exactly when the input is nonclassical (r > ln(2k)/2),
    for every transmittance in (0, 1).
    """
    return bs_covmat(spec.r, spec.k, spec.T)


@np.errstate(over="ignore", invalid="ignore")
def r_ent_threshold(k1, k2):
    """Squeeze parameter at which the TMST becomes entangled:

    r_ent = ln[(1 + 4 k1 k2 + sqrt((4 k1^2 - 1)(4 k2^2 - 1))) / (2 (k1 + k2))] / 2.
    """
    k1 = _check_k(k1, "k1")
    k2 = _check_k(k2, "k2")
    num = 1.0 + 4.0 * k1 * k2 + np.sqrt((4.0 * k1 * k1 - 1.0) * (4.0 * k2 * k2 - 1.0))
    out = _require_finite(0.5 * np.log(num / (2.0 * (k1 + k2))), "k1 or k2", "r_ent")
    return float(out) if out.ndim == 0 else out


@np.errstate(over="ignore", invalid="ignore")
def r_qt_threshold(k1, k2):
    """Squeeze parameter at which the TMST becomes EPR correlated and
    teleportation capable (the two coincide since c1 = c2):

    r_qt = ln(k1 + k2) / 2.

    Always >= r_ent_threshold, with equality exactly on k1 = k2.
    """
    k1 = _check_k(k1, "k1")
    k2 = _check_k(k2, "k2")
    out = _require_finite(0.5 * np.log(k1 + k2), "k1 or k2", "r_qt")
    return float(out) if out.ndim == 0 else out


def nonclassicality_threshold(k):
    """Squeeze parameter beyond which a squeezed thermal mode is
    quadrature squeezed: r = ln(2k)/2.  Equals r_ent_threshold(k, k)."""
    k = _check_k(k)
    out = 0.5 * np.log(2.0 * k)
    return float(out) if out.ndim == 0 else out
