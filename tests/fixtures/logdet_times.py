"""Time ``linalg.log2_det_ipm`` and ``linalg.psd_sqrt`` per call, and print two tables.

Each row is one array size M, timed as a sweep point runs it: numpy's
OpenBLAS on one thread, subnormals flushed and the freed heap kept mapped.
The columns give the best per-call time in ms over 7 rounds of 20 calls;
each round times every column of a row in turn, so that a change of the
machine's load reaches all of them alike.

The log-det table takes fig12c's shadowed Gaussian at sigma_phi = 15 deg
and sigma_shad = 4 dB.  At phi = 0 the real form is zero beyond lag kd, so
the log-det factors it banded; at phi = 90 deg it is dense.

    banded         phi = 0 through LAPACK's dpbtrf
    dense-band-off phi = 0 with the band path switched off (dpotrf)
    dense          phi = 90 through dpotrf
    fallback-0     phi = 0 without the LAPACK binding (np.linalg.cholesky)
    fallback-90    phi = 90 without it

The square-root table takes the one-ring correlation at phi = 0.3 rad and
half-width 10 deg (an XL cluster's) and 60 deg, on 0.5-wavelength spacing,
and the exponential correlation at rho = 0.5.  r10 and r60 are the
one-ring forms' numerical ranks from LAPACK's dpstrf; below M/2 - 8 the
root comes from the pivoted Cholesky factor, above it from ``eigh``.  Each
matrix is timed as it is and without the LAPACK binding (``-nb``), which
is the ``eigh`` path for every matrix:

    or10, or10-nb  one-ring, 10 deg
    or60, or60-nb  one-ring, 60 deg
    exp, exp-nb    exponential, rho = 0.5 (full rank)

Run from the repository root:

    PYTHONPATH=src python3 tests/fixtures/logdet_times.py [M ...]

The best of 7 rounds shields a table from a short burst of load, not from
load that lasts the whole run: on a shared 2-core machine two back-to-back
runs of the same code read 0.415 and 0.662 ms for one cell, with every
complex-input column of the slower run 9-60% high.  So one run's table
does not compare with another's.  To compare two checkouts, run the whole
script several times on each, alternating between them, and compare the
runs.
"""

import sys
import timeit
from contextlib import contextmanager

import numpy as np

from chansim import cbsm, gbsm, linalg, runner

SIZES = (100, 220, 380)
NUMBER, REPEAT = 20, 7


def shadowed_gaussian(m: int, phi_deg: float) -> np.ndarray:
    f = 4.0 * np.random.default_rng(m).standard_normal(m)
    return gbsm.gaussian_ula_shadowed(gbsm.UlaGeometry(m=m), f, np.radians([phi_deg]),
                                      sigma_phi=np.radians(15.0))


def onering(m: int, delta_deg: float) -> np.ndarray:
    delta = np.radians(delta_deg)
    return gbsm.onering_ula(gbsm.UlaGeometry(m=m), phi=0.3, delta_phi=delta,
                            quad=gbsm.sized_quadrature(delta, 0.5, m))


def pivoted_rank(r: np.ndarray) -> int:
    """The numerical rank dpstrf finds for r's real form, at LAPACK's default tolerance."""
    return linalg._pivoted_cholesky(linalg._similar_form(r)[0])[2]


@contextmanager
def patched(**attrs):
    """Module attributes of linalg set to the given values for the body, then restored."""
    saved = {name: getattr(linalg, name) for name in attrs}
    for name, value in attrs.items():
        setattr(linalg, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(linalg, name, value)


def best_ms(*variants) -> list[float]:
    """Best per-call ms of each (call, patch) variant, over REPEAT rounds that interleave them."""
    best = [np.inf] * len(variants)
    for _ in range(REPEAT):
        for i, (call, patch) in enumerate(variants):
            with patched(**patch):
                best[i] = min(best[i], timeit.timeit(call, number=NUMBER) / NUMBER * 1e3)
    return best


def log_det(r: np.ndarray):
    c = 1e6 / r.shape[0]
    return lambda: linalg.log2_det_ipm(r, c)


def main(sizes) -> None:
    runner._retain_heap()
    no_lapack = {"_lapack": lambda: None}
    print(f"{'M':>4} {'kd':>4} {'banded':>8} {'dense-band-off':>15} {'dense':>8} "
          f"{'fallback-0':>11} {'fallback-90':>12}")
    with linalg.one_blas_thread(), linalg.flush_subnormals():
        for m in sizes:
            broadside, endfire = shadowed_gaussian(m, 0.0), shadowed_gaussian(m, 90.0)
            kd = linalg._lower_bandwidth(linalg._similar_form(broadside)[0])
            cells = best_ms((log_det(broadside), {}),
                            (log_det(broadside), {"_BAND_MARGIN": np.inf}),
                            (log_det(endfire), {}), (log_det(broadside), no_lapack),
                            (log_det(endfire), no_lapack))
            print(f"{m:>4} {kd:>4} " + " ".join(f"{t:>{w}.3f}" for t, w in
                                              zip(cells, (8, 15, 8, 11, 12))), flush=True)
        print(f"\n{'M':>4} {'r10':>4} {'r60':>4} {'or10':>8} {'or10-nb':>8} {'or60':>8} "
              f"{'or60-nb':>8} {'exp':>8} {'exp-nb':>8}")
        for m in sizes:
            narrow, wide = onering(m, 10.0), onering(m, 60.0)
            exponential = cbsm.exponential_correlation(m, 0.5)
            cells = best_ms(*[((lambda r=r: linalg.psd_sqrt(r)), patch)
                              for r in (narrow, wide, exponential) for patch in ({}, no_lapack)])
            print(f"{m:>4} {pivoted_rank(narrow):>4} {pivoted_rank(wide):>4} "
                  + " ".join(f"{t:>8.3f}" for t in cells), flush=True)


if __name__ == "__main__":
    main([int(m) for m in sys.argv[1:]] or SIZES)
