"""Characteristic-function quadrature for the teleportation fidelity.

Independent verification path: instead of the det M closed form, the
coherent-state fidelity is computed as the integral

    F = (1/pi) * integral d^2 lambda  e^{-|lambda|^2} chi(lambda, lambda*)

over the complex plane, where chi is the resource's zero-mean Gaussian
characteristic function evaluated at the two-mode displacement point
(lambda_a, lambda_b) = (lambda, lambda*).  The mapping from lambda to the
real quadrature displacement vector is lambda = (dx + i dp)/sqrt(2) per
mode, under which

    u(lambda) = sqrt(2) * (Im l, -Re l, -Im l, -Re l),
    chi = exp(-u^T V u / 2).

With zero first moments chi is real and positive, so the accumulated
imaginary part is identically zero and the integrand is the smooth
Gaussian exp(-|lambda|^2 - u^T V u / 2); since V >= i Omega/2 implies
|chi| <= 1, truncating to the square [-R, R]^2 leaves a tail of at most
1 - erf(R)^2.  The error estimate adds it to an a-priori aliasing bound
that reads only tr Q, never det M; the same bound sizes the default grid
per state.

``_integrate`` sums u^T V u from broadcast 1-D factors, one term
(u_i V_ij) u_j at a time, i outer and j inner: einsum's order, so the bits
equal the (n, n, 4) einsum form kept in ``tests/conftest.py``.  Unlike
einsum, broadcast products warn, so the grid sum runs under ``np.errstate``
and an overflowing grid fails as one NumericalDomainError.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import require_physical
from .errors import GridSizeError, InvalidInput, NumericalDomainError, QuadratureWarning
from .sweep import MAX_GRID_POINTS

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "DEFAULT_SPEC",
    "cf_value",
    "fidelity_by_quadrature",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncation radius and per-axis point count of the midpoint rule, odd so
    that a node sits on the integrand's peak at 0; the points_per_axis^2 nodes
    share the sweep's MAX_GRID_POINTS budget.  None, the default, takes the
    smallest odd n >= 51, at most 401, whose aliasing bound (1 + 2q/(1 - q))^2 - 1
    is <= 1e-12, where q = exp(-pi^2 / (tr Q h^2)), h = 2 radius / n and the
    integrand is exp(-x^T Q x) in x = (Re l, Im l): Poisson summation and
    lambda_max(Q) <= tr Q (Q >= I) bound the lattice's alias terms by q^|m|^2.
    Rounding (~1e-14) is not included."""

    radius: float = 6.0
    points_per_axis: int | None = None

    def __post_init__(self):
        if not (isinstance(self.radius, (int, float)) and math.isfinite(self.radius)
                and self.radius > 0):
            raise InvalidInput("radius must be a positive finite number")
        n = self.points_per_axis
        if n is not None and not (isinstance(n, int) and n >= 51 and n % 2):
            raise InvalidInput("points_per_axis must be an odd integer >= 51")
        if n is not None and n * n > MAX_GRID_POINTS:
            raise GridSizeError(f"quadrature grid of {n * n} points exceeds the "
                                f"{MAX_GRID_POINTS} point budget")


DEFAULT_SPEC = QuadratureSpec()


class QuadratureResult(NamedTuple):
    value: float
    est_error: float
    warn: bool


def _displacement(re, im) -> np.ndarray:
    """Real 4-vector(s) of quadrature displacements for (lambda, lambda*)."""
    re = np.asarray(re, dtype=float)
    im = np.asarray(im, dtype=float)
    return _SQRT2 * np.stack([im, -re, -im, -re], axis=-1)


def cf_value(V, lam) -> complex:
    """Characteristic function of the resource at (lambda_a, lambda_b) =
    (lam, conj(lam)); always 1 at lam = 0 and |chi| <= 1."""
    V = require_physical(V)
    if V.ndim != 2:
        raise InvalidInput("cf_value expects a single 4x4 matrix")
    lam = complex(lam)
    u = _displacement(lam.real, lam.imag)
    return complex(math.exp(-0.5 * float(u @ V @ u)))


def _nodes(radius: float, n: int) -> tuple[np.ndarray, float]:
    """Nodes and the common weight h of the n-point midpoint rule on [-radius, radius]."""
    h = 2.0 * radius / n
    return -radius + (np.arange(n) + 0.5) * h, h


def _integrate(V: np.ndarray, radius: float, n: int) -> float:
    """Midpoint quadrature over the n x n grid, Re l on axis 0 and Im l on axis 1.

    Order contract: q is summed term by term, i outer and j inner, to keep
    einsum's bits.  errstate silences inf * 0 on an inf-node grid, as einsum
    did, and overflow in the node squares, the integrand and the weight on a
    grid too wide for floats; the caller raises on the non-finite value.
    """
    x, h = _nodes(radius, n)
    d = _displacement(x, x).T  # u's entries: Im l (0, 2) on axis 1, Re l on axis 0
    u = (d[0][None, :], d[1][:, None], d[2][None, :], d[3][:, None])
    q = np.zeros((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(4):
            for j in range(4):
                q += (u[i] * V[i, j]) * u[j]
        sq = x * x
        integrand = np.exp(-(sq[:, None] + sq[None, :]) - 0.5 * q)
        # np.sum reduces pairwise, keeping the result order-independent
        return float(np.sum(integrand * (h * h))) / math.pi


def _aliasing_bound(trace_q: float, radius: float, n: int) -> float:
    """(1 + 2q/(1 - q))^2 - 1 = 4q/(1 - q)^2 for the n-point rule; inf once q rounds to 1."""
    w = math.pi * n / (2.0 * radius)  # pi / h; a product overflows to inf, a power raises
    q = math.exp(-w * w / trace_q)
    return 4.0 * q / ((1.0 - q) * (1.0 - q)) if q < 1.0 else math.inf


def fidelity_by_quadrature(V, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadratureResult:
    """Teleportation fidelity by numerical integration.

    Returns (value, est_error, warn).  est_error is the a-priori aliasing
    bound (1 + 2q/(1 - q))^2 - 1, q = exp(-pi^2 / (tr Q h^2)), from Poisson
    summation with lambda_max(Q) <= tr Q, plus the truncation tail
    1 - erf(radius)^2; rounding (~1e-14) is not included.  When est_error
    exceeds 1e-3 a QuadratureWarning is issued and the warn flag is set.
    """
    V = require_physical(V)
    if V.ndim != 2:
        raise InvalidInput("fidelity_by_quadrature expects a single 4x4 matrix")
    if not isinstance(spec, QuadratureSpec):
        raise InvalidInput("spec must be a QuadratureSpec")

    v = V.tolist()  # Python floats: an overflowing trace reads inf without numpy warnings
    trace_q = 2.0 + (v[0][0] - 2.0 * v[0][2] + v[2][2]) + (v[1][1] + 2.0 * v[1][3] + v[3][3])
    n = spec.points_per_axis
    if n is None:
        n = 51
        while n < 401 and _aliasing_bound(trace_q, spec.radius, n) > 1e-12:
            n += 2
    value = _integrate(V, spec.radius, n)

    tail = 1.0 - math.erf(spec.radius) ** 2
    est_error = _aliasing_bound(trace_q, spec.radius, n) + tail
    if not math.isfinite(value):
        raise NumericalDomainError("quadrature accumulated a non-finite value")

    warn = est_error > 1e-3
    if warn:
        warnings.warn(
            QuadratureWarning(
                f"quadrature not converged: est_error={est_error:.3e} "
                f"(radius={spec.radius}, points={n})"
            ),
            stacklevel=2,
        )
    return QuadratureResult(value=value, est_error=est_error, warn=warn)
