"""
Entanglement, EPR correlation, and teleportation capability
===========================================================

Three nested verdicts for a two-mode resource state:

  EPR correlated  (Delta < 2)      strongest
  QT capable      (det M < 4)      i.e. fidelity F = 1/sqrt(det M) > 1/2
  entangled       (PPT violated)   weakest

Every EPR-correlated state teleports; some entangled states do not.
"""

import numpy as np

from gaussqt import (
    CanonicalParams,
    bs_covmat,
    classify,
    epr_uncertainty,
    fidelity,
    from_canonical,
    m_matrix,
    simon_inseparable,
    tmst_covmat,
)

np.set_printoptions(precision=6, suppress=True)


def show(name, V):
    report, label = classify(V)
    print(f"{name:34s} {label.value:14s} Delta={report.delta_epr:8.4f} "
          f"detM={report.det_m:8.4f} F={report.fidelity:6.4f}")
    return report


print("state                              class          "
      "Delta      det M       F")
print("-" * 86)

# the vacuum: separable, classical fidelity exactly 1/2
show("vacuum", 0.5 * np.eye(4))

# pure squeezed vacuum: every r > 0 gives all three properties at once
show("squeezed vacuum r=0.5", tmst_covmat(0.5, 0.5, 0.5))

# thermal noise splits the hierarchy: entangled but useless for
# teleportation at this squeezing
show("squeezed thermal r=0.35", tmst_covmat(0.35, 1.5, 0.75))

# more squeezing on the same thermal pair crosses into the QT region
show("squeezed thermal r=0.48", tmst_covmat(0.48, 1.5, 0.75))

# a beam-splitter resource: EPR correlated at balanced transmittance
show("beam splitter T=0.50", bs_covmat(0.5, 0.5, 0.5))

# unbalanced splitting keeps teleportation alive without EPR correlation
show("standard form (1.7,1.7,1.5,0.8)",
     from_canonical(CanonicalParams(1.7, 1.7, 1.5, 0.8)))

# -- the quantities behind the verdicts ------------------------------------

V = tmst_covmat(0.5, 0.5, 0.5)
print("\nsqueezed vacuum r=0.5 in detail:")
print("EPR uncertainty Delta =", epr_uncertainty(V))
print("teleportation matrix M:")
print(m_matrix(V))
print("fidelity F = 1/sqrt(det M) =", fidelity(V))

verdict = simon_inseparable(V)
print("determinant-form separability test:", verdict)
print("both entanglement routes agree:",
      verdict.simon_entangled == verdict.ppt_entangled)

# trace identity: Tr M = Delta + 2, so EPR correlation forces det M < 4
M = m_matrix(V)
print("\nTr M - (Delta + 2) =", np.trace(M) - epr_uncertainty(V) - 2.0)
