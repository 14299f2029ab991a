"""
Cross-checking the fidelity formula by numerical integration
============================================================

The closed form F = 1/sqrt(det M) is checked against a completely
different route: the overlap integral of Gaussian characteristic
functions, evaluated on a midpoint grid.  Agreement to ~1e-10 on states
with very different shapes is strong evidence both are right.  The
integrator also knows when it cannot be trusted: shrink the box and it
raises a warning and reports a large error estimate.
"""

import warnings

import numpy as np

from gaussqt import (
    QuadratureSpec,
    QuadratureWarning,
    bs_covmat,
    cf_value,
    fidelity,
    fidelity_by_quadrature,
    tmst_covmat,
)

# -- the characteristic function itself ------------------------------------

V = tmst_covmat(0.5, 0.5, 0.5)
print("characteristic function of the squeezed vacuum along the real axis")
for t in (0.0, 0.5, 1.0, 2.0):
    chi = cf_value(V, t)
    print(f"  chi({t:3.1f}) = {chi.real:.6f}   "
          f"(Gaussian decay e^(-e^(-2r) t^2) = {np.exp(-np.exp(-1.0) * t * t):.6f})")

# -- closed form vs quadrature ---------------------------------------------

states = {
    "vacuum": 0.5 * np.eye(4),
    "squeezed vacuum r=1.0": tmst_covmat(1.0, 0.5, 0.5),
    "squeezed thermal": tmst_covmat(0.48, 1.5, 0.75),
    "beam splitter T=0.3": bs_covmat(0.5, 0.5, 0.3),
}

print("\nstate                      closed form   quadrature    |diff|")
print("-" * 66)
for name, W in states.items():
    closed = fidelity(W)
    result = fidelity_by_quadrature(W)
    print(f"{name:26s} {closed:.10f}  {result.value:.10f}  "
          f"{abs(closed - result.value):.2e}")

# -- the integrator flags its own failure ----------------------------------

print("\nshrinking the integration box until the Gaussian no longer fits:")
for radius in (6.0, 3.0, 1.0):
    spec = QuadratureSpec(radius=radius)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fidelity_by_quadrature(V, spec)
    flag = "warned" if any(
        issubclass(w.category, QuadratureWarning) for w in caught
    ) else "ok"
    print(f"  radius {radius:3.1f}: value = {result.value:.8f}, "
          f"est_error = {result.est_error:.2e}  [{flag}]")

print("\na large est_error, not silence, is the failure mode")
