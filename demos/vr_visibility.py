"""Visibility-region statistics on an extra-large array.

The two-state chain decides, antenna by antenna, whether a cluster is
visible inside its nominal visibility region.  This script draws many
chains over a 33-antenna region and prints the histogram of visible
antenna counts, plus where the visibility regions of a few random
clusters land on a 100-antenna array.

Run:  python3 demos/vr_visibility.py
"""

import collections

import numpy as np

from chansim import xlmimo

RUNS = 10_000
M_VR = 33


def main():
    rng = np.random.default_rng(0)
    counts = collections.Counter()
    for _ in range(RUNS):
        mask = xlmimo.vr_mask_chain(M_VR, 0.05, 0.95, 0.05, rng)
        counts[int(mask.sum())] += 1

    print("visible antennas out of %d (%d runs)" % (M_VR, RUNS))
    peak = max(counts.values())
    for k in sorted(counts):
        bar = "#" * max(1, round(50 * counts[k] / peak))
        print("%3d  %5d  %s" % (k, counts[k], bar))
    mean = sum(k * v for k, v in counts.items()) / RUNS
    print("mean visible: %.1f antennas (%.1f%%), all visible in %.1f%% of runs"
          % (mean, 100 * mean / M_VR, 100 * counts[M_VR] / RUNS))

    print()
    print("cluster visibility spans on a 100-antenna array")
    scenario = xlmimo.build_scenario("scheme1", num_users=2, clusters_per_user=2,
                                     r_bounds=(5.0, 10.0), rng=rng, d1=35.0)
    for k, c in np.ndindex(scenario.vr_center.shape):
        center, span = scenario.centers[k, c], np.flatnonzero(scenario.vr[k, c])
        print("user %d: cluster at (%.1f, %.1f) m, antennas %d..%d, "
              "%d of %d visible"
              % (k, center[0], center[1], span[0] + 1, span[-1] + 1,
                 int((scenario.vr[k, c] == 1).sum()), len(span)))


if __name__ == "__main__":
    main()
