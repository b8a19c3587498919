"""Geometry-based correlation: how angular spread and arrival angle
shape the capacity of a uniform linear array.

A narrow one-ring scattering disc concentrates energy in few spatial
directions, so the correlation matrix is badly conditioned and the
capacity bound drops.  Arrivals parallel to the array (phi near 90
degrees) compress the visible aperture and hurt even more.

Run:  python3 demos/gbsm_angular_spread.py
"""

import numpy as np

from chansim import gbsm, linalg, metrics

M = 100
ETA = 10.0 ** (60.0 / 10.0)


def main():
    geom = gbsm.UlaGeometry(m=M)

    print("one-ring capacity bound vs angular spread (phi=30deg)")
    print("delta_deg,capacity_bits,condition_number")
    for delta in (1, 5, 10, 20, 30, 45):
        r = gbsm.onering_ula(geom, phi=np.radians(30), delta_phi=np.radians(delta))
        print("%d,%.2f,%.3g" % (delta, metrics.capacity_ub(r, ETA),
                                linalg.condition_number(r)))

    print()
    print("arrival-angle dependence at delta=30deg")
    print("phi_deg,capacity_bits")
    for phi in (0, 30, 60, 90):
        r = gbsm.onering_ula(geom, phi=np.radians(phi), delta_phi=np.radians(30))
        print("%d,%.2f" % (phi, metrics.capacity_ub(r, ETA)))

    # Gaussian scattering: the closed form is a small-angle approximation,
    # compare it against the numeric integral at a few spreads.
    print()
    print("gaussian model: closed form vs numeric integral (phi=30deg)")
    print("sigma_phi_deg,closed_bits,numeric_bits")
    quad = gbsm.QuadratureConfig(nodes_per_dim=401)   # wide +-6 sigma window
    for sigma in (2, 5, 10):
        phi, sigma_phi = np.radians(30), np.radians(sigma)
        r_closed = gbsm.gaussian_ula_closed(geom, phi=phi, sigma_phi=sigma_phi)
        r_num = gbsm.gaussian_ula_numeric(geom, phi=phi, sigma_phi=sigma_phi, quad=quad)
        c_closed = metrics.capacity_ub(r_closed, ETA)
        c_num = metrics.capacity_ub(r_num, ETA)
        print("%d,%.2f,%.2f" % (sigma, c_closed, c_num))


if __name__ == "__main__":
    main()
