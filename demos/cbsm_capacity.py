"""Capacity upper bound under the exponential correlation model.

Walks the classical correlation-based story: capacity falls slowly while
the correlation factor rho stays moderate, then collapses as rho
approaches 1 and the correlation matrix loses rank.  Also shows how
log-normal shadowing shifts the picture when the antennas fade
independently.

Run:  python3 demos/cbsm_capacity.py
"""

import numpy as np

from chansim import cbsm, metrics

M = 100
ETA = 10.0 ** (60.0 / 10.0)   # 60 dB transmit SNR
TRIALS = 200


def main():
    print("capacity upper bound vs correlation factor (M=%d, 60 dB)" % M)
    print("rho,capacity_bits")
    for rho in np.arange(0.0, 1.01, 0.1):
        r = cbsm.exponential_correlation(M, rho)
        print("%.1f,%.2f" % (rho, metrics.capacity_ub(r, ETA)))

    # Shadowing makes the matrix random, so we average the bound over
    # independent large-scale draws.
    print()
    print("uncorrelated antennas with shadowing (mean over %d draws)" % TRIALS)
    print("sigma_shad_db,mean_capacity_bits,stderr")
    rng = np.random.default_rng(0)
    for sigma in (0.0, 2.0, 4.0, 6.0):
        caps = []
        for _ in range(TRIALS):
            f = cbsm.draw_shadowing(M, sigma, rng)
            r = cbsm.uncorrelated_with_shadowing(1.0, f)
            caps.append(metrics.capacity_ub(r, ETA))
        mean, stderr = metrics.mean_with_stderr(caps)
        print("%.0f,%.2f,%.2f" % (sigma, mean, stderr))


if __name__ == "__main__":
    main()
