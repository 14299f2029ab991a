"""
Region diagrams over the two resource families
==============================================

Two parameter planes, three nested regions each:

  * squeezed thermal pairs (k1, k2) at fixed r: the teleportation region
    k1 + k2 < e^{2r} sits strictly inside the entanglement region and
    touches it on the diagonal k1 = k2;
  * beam-splitter outputs (k, T) at fixed r: EPR correlation never
    appears without teleportation, and at the balanced point T = 1/2
    all three verdicts coincide.

With matplotlib installed this writes region_tmst.png / region_bs.png;
without it the diagrams print as ASCII maps.
"""

import numpy as np

from gaussqt import AxisSpec, SweepConfig, run_sweep
from gaussqt.criteria import LABELS

GLYPH = {"Separable": ".", "EntangledNoQT": "e", "QTNoEPR": "q", "EPRCorrelated": "E"}


def region_labels(config):
    """The class of every grid point, in row order (axis2 fastest); a sweep's
    class column holds codes into LABELS."""
    return LABELS[np.concatenate([chunk["class"] for chunk in run_sweep(config)])]


def region_codes(labels, steps):
    return np.vectorize(GLYPH.get)(labels).reshape(steps, steps)


def ascii_map(codes, every=3):
    for row in codes[::-every]:
        print("".join(row[::every]))


# -- squeezed thermal plane -------------------------------------------------

steps = 61
tmst_labels = region_labels(
    SweepConfig(
        family="tmst",
        r=0.48,
        axis1=AxisSpec("k1", 0.5, 2.5, steps),
        axis2=AxisSpec("k2", 0.5, 2.5, steps),
    )
)
codes = region_codes(tmst_labels, steps)
print("squeezed thermal pairs at r = 0.48   "
      "(. separable, e entangled, q teleports, E EPR)")
print("k2 grows to the right, k1 grows downward in parameter order;")
print("shown with k1 increasing up the page:\n")
ascii_map(codes)
print("\nteleportation boundary: k1 + k2 =", float(np.exp(2 * 0.48)))

# -- beam-splitter plane ----------------------------------------------------

bs_labels = region_labels(
    SweepConfig(
        family="bs",
        r=0.5,
        axis1=AxisSpec("k", 0.5, 2.0, steps),
        axis2=AxisSpec("T", 0.05, 0.95, steps),
    )
)
codes_bs = region_codes(bs_labels, steps)
print("\nbeam-splitter outputs at r = 0.5   (k up the page, T to the right)\n")
ascii_map(codes_bs)
print("\nEPR correlation clusters around balanced transmittance T = 1/2")

# -- optional rendered figures ---------------------------------------------

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping PNG output")
else:
    order = ["Separable", "EntangledNoQT", "QTNoEPR", "EPRCorrelated"]
    lut = {name: i for i, name in enumerate(order)}
    cmap = matplotlib.colors.ListedColormap(["#f0f0f0", "#9ecae1", "#fdae6b", "#e6550d"])

    for name, labels, ax1, ax2, extent in [
        ("region_tmst.png", tmst_labels, "k2", "k1", (0.5, 2.5, 0.5, 2.5)),
        ("region_bs.png", bs_labels, "T", "k", (0.05, 0.95, 0.5, 2.0)),
    ]:
        img = np.vectorize(lut.get)(labels).reshape(steps, steps)
        fig, ax = plt.subplots(figsize=(5.2, 4.4))
        ax.imshow(img, origin="lower", extent=extent, aspect="auto",
                  cmap=cmap, vmin=-0.5, vmax=3.5, interpolation="nearest")
        ax.set_xlabel(ax1)
        ax.set_ylabel(ax2)
        handles = [plt.Rectangle((0, 0), 1, 1, color=cmap(i)) for i in range(4)]
        ax.legend(handles, order, loc="upper right", fontsize=7)
        fig.tight_layout()
        fig.savefig(name, dpi=150)
        plt.close(fig)
        print("wrote", name)
