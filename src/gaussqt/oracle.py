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
1 - erf(R)^2, which is folded into the error estimate alongside the
two-resolution Richardson difference.

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
    share the sweep's MAX_GRID_POINTS budget."""

    radius: float = 6.0
    points_per_axis: int = 401

    def __post_init__(self):
        if not (isinstance(self.radius, (int, float)) and math.isfinite(self.radius)
                and self.radius > 0):
            raise InvalidInput("radius must be a positive finite number")
        n = self.points_per_axis
        if not (isinstance(n, int) and n >= 51 and n % 2):
            raise InvalidInput("points_per_axis must be an odd integer >= 51")
        if n * n > MAX_GRID_POINTS:
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


def fidelity_by_quadrature(V, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadratureResult:
    """Teleportation fidelity by numerical integration.

    Returns (value, est_error, warn).  est_error is the difference
    against a half-resolution grid plus the rigorous truncation tail
    1 - erf(radius)^2; when it exceeds 1e-3 a QuadratureWarning is
    issued and the warn flag is set, never silently.
    """
    V = require_physical(V)
    if V.ndim != 2:
        raise InvalidInput("fidelity_by_quadrature expects a single 4x4 matrix")
    if not isinstance(spec, QuadratureSpec):
        raise InvalidInput("spec must be a QuadratureSpec")

    value = _integrate(V, spec.radius, spec.points_per_axis)
    # the coarse count is odd too, so 0 is a node of both grids
    coarse = _integrate(V, spec.radius, spec.points_per_axis // 2 | 1)

    tail = 1.0 - math.erf(spec.radius) ** 2
    est_error = abs(value - coarse) + tail
    if not math.isfinite(value):
        raise NumericalDomainError("quadrature accumulated a non-finite value")

    warn = est_error > 1e-3
    if warn:
        warnings.warn(
            QuadratureWarning(
                f"quadrature not converged: est_error={est_error:.3e} "
                f"(radius={spec.radius}, points={spec.points_per_axis})"
            ),
            stacklevel=2,
        )
    return QuadratureResult(value=value, est_error=est_error, warn=warn)
