"""
Covariance-matrix validity and the two-mode standard form
=========================================================

Every two-mode Gaussian state is a 4x4 covariance matrix in the
(x_a, p_a, x_b, p_b) quadrature ordering with vacuum variance 1/2.
Physicality is a single spectral condition: the smaller symplectic
eigenvalue must reach the vacuum floor, nu_minus >= 1/2.
"""

import numpy as np

from gaussqt import (
    CanonicalParams,
    from_canonical,
    symplectic_eigenvalues,
    tmst_covmat,
    to_canonical,
    validate,
)

np.set_printoptions(precision=6, suppress=True)

# -- the vacuum sits exactly on the physicality boundary -------------------

vacuum = 0.5 * np.eye(4)
rep = validate(vacuum)
print("vacuum:", rep)

# shrinking the variances below 1/2 is forbidden by the uncertainty relation
rep = validate(0.4 * np.eye(4))
print("sub-vacuum:", rep)

# -- a squeezed thermal state and its invariants ---------------------------

V = tmst_covmat(r=0.48, k1=1.5, k2=0.75)
print("\nsqueezed thermal covariance (r=0.48, k1=1.5, k2=0.75):")
print(V)

nu_minus, nu_plus = symplectic_eigenvalues(V)
print(f"symplectic spectrum: ({nu_minus:.6f}, {nu_plus:.6f})")
print("squeezing never changes the spectrum; it stays at (k2, k1) = (0.75, 1.5)")

# -- reduction to standard form --------------------------------------------

# Local mode-by-mode operations bring any physical state to the shape
#   A = eta I,  B = zeta I,  C = diag(c1, -c2)
# with four numbers carrying all the correlation content.
params, S = to_canonical(V)
print("\nstandard-form parameters:", params)
print("reducing transformation (identity: already in standard form):")
print(S)

# rotate the state by some local symplectic and reduce it back
theta = 0.7
R = np.array(
    [
        [np.cos(theta), np.sin(theta), 0, 0],
        [-np.sin(theta), np.cos(theta), 0, 0],
        [0, 0, 1.0, 0],
        [0, 0, 0, 1.0],
    ]
)
W = R @ V @ R.T
params2, S2 = to_canonical(0.5 * (W + W.T))
print("\nafter a local rotation the same parameters come back:")
print(params2)
residual = np.max(np.abs(S2 @ W @ S2.T - from_canonical(params2)))
print(f"reduction residual: {residual:.2e}")

# the parameters themselves rebuild the state up to those local operations
assert abs(params2.eta - params.eta) < 1e-9
assert abs(params2.c1 - params.c1) < 1e-9

# -- standard form is where the analysis happens ---------------------------

p = CanonicalParams(eta=1.0, zeta=0.8, c1=0.7, c2=0.5)
print("\nhand-built standard form:", p)
print("covariance matrix:")
print(from_canonical(p))
