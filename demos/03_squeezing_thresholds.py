"""
How much squeezing does a noisy pair need?
==========================================

For the squeezed thermal family (r, k1, k2) both the entanglement onset
and the teleportation onset have closed forms in r.  The teleportation
threshold r_qt = ln(k1 + k2)/2 always sits at or above the entanglement
threshold, with equality exactly on the symmetric diagonal k1 = k2: for
asymmetric noise there is a squeezing window where the state is
entangled yet cannot teleport.
"""

import numpy as np

from gaussqt import (
    classify,
    nonclassicality_threshold,
    r_ent_threshold,
    r_qt_threshold,
    tmst_covmat,
)

# -- a table across thermal asymmetry --------------------------------------

print("  k1     k2      r_ent     r_qt      window")
print("-" * 50)
for k1, k2 in [
    (0.5, 0.5),
    (1.0, 1.0),
    (1.5, 0.75),
    (2.0, 0.6),
    (2.5, 2.5),
    (3.0, 0.5),
]:
    re = r_ent_threshold(k1, k2)
    rq = r_qt_threshold(k1, k2)
    print(f"{k1:5.2f}  {k2:5.2f}   {re:8.5f}  {rq:8.5f}   {rq - re:8.5f}")

print("\nthe window closes only for k1 = k2 (pure-loss symmetric noise)")

# -- watch the verdicts flip as r crosses each threshold -------------------

k1, k2 = 1.5, 0.75
re = r_ent_threshold(k1, k2)
rq = r_qt_threshold(k1, k2)
print(f"\nk1={k1}, k2={k2}: r_ent={re:.5f}, r_qt={rq:.5f}")
for r in (re - 0.02, re + 0.02, 0.5 * (re + rq), rq - 0.02, rq + 0.02):
    _, label = classify(tmst_covmat(r, k1, k2))
    print(f"  r = {r:.5f}  ->  {label.value}")

# -- thresholds grow slowly with noise -------------------------------------

ks = np.linspace(0.5, 3.0, 6)
print("\nsymmetric pairs: threshold vs thermal occupation")
for k in ks:
    print(f"  k = {k:4.2f}   r_ent = r_qt = {r_qt_threshold(k, k):.5f}")

# the same number answers the beam-splitter question "when is a squeezed
# thermal input nonclassical?"
print("\nnonclassicality threshold of a single-mode input, k = 1.0:",
      f"{nonclassicality_threshold(1.0):.5f}")
print("equals the symmetric-pair threshold:",
      f"{r_ent_threshold(1.0, 1.0):.5f}")
