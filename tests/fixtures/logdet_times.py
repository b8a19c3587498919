"""Time ``linalg.log2_det_ipm`` per call on fig12c's shadowed Gaussian, and print a table.

Each row is one array size M.  The matrices are fig12c's at sigma_phi =
15 deg and sigma_shad = 4 dB, built and timed as a sweep point runs them:
numpy's OpenBLAS on one thread, subnormals flushed and the freed heap kept
mapped.  At phi = 0 the real form is zero beyond lag kd, so the log-det
factors it banded; at phi = 90 deg it is dense.  The columns give the best
per-call time in ms:

    banded         phi = 0 through LAPACK's dpbtrf
    dense-band-off phi = 0 with the band path switched off (dpotrf)
    dense          phi = 90 through dpotrf
    fallback-0     phi = 0 without the LAPACK binding (np.linalg.cholesky)
    fallback-90    phi = 90 without it

Run from the repository root:

    PYTHONPATH=src python3 tests/fixtures/logdet_times.py [M ...]
"""

import sys
import timeit

import numpy as np

from chansim import gbsm, linalg, runner

SIZES = (100, 220, 380)
NUMBER, REPEAT = 20, 7


def shadowed_gaussian(m: int, phi_deg: float) -> np.ndarray:
    f = 4.0 * np.random.default_rng(m).standard_normal(m)
    return gbsm.gaussian_ula_shadowed(gbsm.UlaGeometry(m=m), f, np.radians([phi_deg]),
                                      sigma_phi=np.radians(15.0))


def per_call_ms(r: np.ndarray, **patch) -> float:
    """Best per-call time of log2_det_ipm(r, 1e6 / M), with module attributes of linalg patched."""
    saved = {name: getattr(linalg, name) for name in patch}
    for name, value in patch.items():
        setattr(linalg, name, value)
    try:
        c = 1e6 / r.shape[0]
        return min(timeit.repeat(lambda: linalg.log2_det_ipm(r, c), number=NUMBER,
                                 repeat=REPEAT)) / NUMBER * 1e3
    finally:
        for name, value in saved.items():
            setattr(linalg, name, value)


def main(sizes) -> None:
    runner._retain_heap()
    no_lapack = {"_lapack": lambda: None}
    print(f"{'M':>4} {'kd':>4} {'banded':>8} {'dense-band-off':>15} {'dense':>8} "
          f"{'fallback-0':>11} {'fallback-90':>12}")
    with linalg.one_blas_thread(), linalg.flush_subnormals():
        for m in sizes:
            broadside, endfire = shadowed_gaussian(m, 0.0), shadowed_gaussian(m, 90.0)
            kd = linalg._lower_bandwidth(linalg._factor_form(broadside))
            print(f"{m:>4} {kd:>4} {per_call_ms(broadside):>8.3f} "
                  f"{per_call_ms(broadside, _BAND_MARGIN=np.inf):>15.3f} "
                  f"{per_call_ms(endfire):>8.3f} {per_call_ms(broadside, **no_lapack):>11.3f} "
                  f"{per_call_ms(endfire, **no_lapack):>12.3f}", flush=True)


if __name__ == "__main__":
    main([int(m) for m in sys.argv[1:]] or SIZES)
