"""Memory behaviour of the correlation kernels: no argument is written, and the
traced peak of each build, check and factorization stays near its output.

Footprints are tracemalloc peaks in MiB above what was allocated before the
call, so they count the output but not the input.  numpy registers its array
data with tracemalloc; OpenBLAS and LAPACK work space is not counted.
"""

import tracemalloc

import numpy as np
import pytest

from chansim import cbsm, gbsm, linalg
from chansim.metrics import capacity_single, capacity_ub

MIB = 2.0**20


def traced_peak_mib(fn, *args, **kwargs):
    """(fn(*args, **kwargs), its traced peak in MiB above the memory held before the call)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return out, peak / MIB


def onering_380():
    """fig10c's largest one-ring build: M = 380 on 399 nodes."""
    return gbsm.onering_ula(gbsm.UlaGeometry(m=380), phi=np.radians(30.0),
                            delta_phi=np.radians(10.0), quad=gbsm.QuadratureConfig(399))


SHADOW_380 = 4.0 * np.random.default_rng(19).standard_normal(380)


def banded_380():
    """fig12c's largest broadside build: its real form is zero beyond lag 45 (flushed)."""
    with linalg.flush_subnormals():
        return gbsm.gaussian_ula_shadowed(gbsm.UlaGeometry(m=380), SHADOW_380, np.array([0.0]),
                                          sigma_phi=np.radians(15.0))


def test_onering_build_holds_one_steering_matrix():
    onering_380()   # fills the node cache
    r, peak = traced_peak_mib(onering_380)
    # The 380 x 399 phases (2.3 MiB) or the 2.2 MiB output, never both, plus the lag row.
    assert peak <= 3.0, f"{peak:.2f} MiB"
    assert r.nbytes / MIB == pytest.approx(2.2, abs=0.01)


def test_log_det_holds_one_complex_copy_above_its_input():
    r = onering_380()
    _, peak = traced_peak_mib(linalg.log2_det_ipm, r, 100.0)
    # One complex residual copy and its modulus (3.31 MiB); the real form and the
    # factorization's one work array come after it, 2.2 MiB together.
    assert peak <= 3.4, f"{peak:.2f} MiB"


def test_banded_log_det_holds_one_complex_copy_above_its_input():
    r = banded_380()
    assert linalg._lower_bandwidth(linalg._similar_form(r)[0]) == 45
    with linalg.flush_subnormals():
        _, peak = traced_peak_mib(linalg.log2_det_ipm, r, 100.0)
    # The Hermitian check's 3.31 MiB again; the band, its index and its work array
    # are 0.13 MiB each.
    assert peak <= 3.4, f"{peak:.2f} MiB"


@pytest.mark.parametrize("kd", [None, 45])
def test_factorization_holds_one_work_array(kd):
    a = linalg._similar_form(banded_380())[0]
    src = a if kd is None else linalg._lower_band(a, kd)
    diagonal, peak = traced_peak_mib(linalg._cholesky_diagonal, src, 100.0, 1.0, kd)
    assert diagonal is not None
    # Factored in place in one copy of its input: 1.10 MiB dense, 0.13 MiB banded.
    assert peak <= 1.15 * src.nbytes / MIB, f"{peak:.2f} MiB"


def test_psd_sqrt_holds_its_root_and_one_real_array():
    r = onering_380()
    _, peak = traced_peak_mib(linalg.psd_sqrt, r)
    assert peak <= 4.0, f"{peak:.2f} MiB"


def test_shadowed_gaussian_holds_only_its_output():
    geom = gbsm.UlaGeometry(m=380)
    _, peak = traced_peak_mib(gbsm.gaussian_ula_shadowed, geom, SHADOW_380,
                              np.array([0.3]), sigma_phi=np.radians(15.0))
    # Output 2.2 MiB plus the lag row, the gains and numpy's 0.25 MiB cast
    # buffer for the strided view; no M x M shadow power.
    assert peak <= 2.6, f"{peak:.2f} MiB"


def test_shadowed_exponential_holds_only_its_output():
    _, peak = traced_peak_mib(cbsm.exponential_with_shadowing, SHADOW_380, 0.5, 0.3)
    assert peak <= 2.6, f"{peak:.2f} MiB"


def hermitian_inputs():
    """(owner, argument) pairs: the argument is the owner or a view into it."""
    onering = gbsm.onering_ula(gbsm.UlaGeometry(m=10), phi=0.3, delta_phi=0.2)
    shadowed = gbsm.gaussian_ula_shadowed(gbsm.UlaGeometry(m=10),
                                          np.random.default_rng(1).standard_normal(10),
                                          np.array([0.7]), sigma_phi=0.1)
    rng = np.random.default_rng(2)
    a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    banded = banded_380()
    mats = {"onering": onering, "shadowed": shadowed, "random": a @ a.conj().T,
            "real": cbsm.exponential_correlation(10, 0.6),
            "banded": banded, "real-banded": linalg._similar_form(banded)[0]}
    cases = {}
    for name, r in mats.items():
        fortran, one = np.asfortranarray(r), r[:1, :1].copy()
        big = np.kron(r, np.ones((2, 2)))
        cases[f"{name}-c"] = (r, r)
        cases[f"{name}-fortran"] = (fortran, fortran)
        cases[f"{name}-transposed"] = (r, r.T)
        cases[f"{name}-step2"] = (big, big[::2, ::2])
        cases[f"{name}-1x1"] = (one, one)
    return cases


HERMITIAN_INPUTS = hermitian_inputs()
LINALG_CALLS = {
    "check_hermitian": linalg.check_hermitian,
    "psd_eigvals": linalg.psd_eigvals,
    "psd_sqrt": linalg.psd_sqrt,
    "condition_number": linalg.condition_number,
    "log2_det_ipm": lambda r: linalg.log2_det_ipm(r, 1e3),
    "sample_correlated": lambda r: linalg.sample_correlated(r, np.random.default_rng(0)),
    "capacity_ub": lambda r: capacity_ub(r, 1e3),
    "capacity_single": lambda r: capacity_single(r, 1e3),
}


@pytest.mark.parametrize("case", sorted(HERMITIAN_INPUTS))
@pytest.mark.parametrize("call", sorted(LINALG_CALLS))
def test_linalg_leaves_its_argument_unchanged(call, case):
    owner, arg = HERMITIAN_INPUTS[case]
    before = owner.tobytes(order="A")
    LINALG_CALLS[call](arg)
    assert owner.tobytes(order="A") == before


def vector_inputs(v):
    """(owner, argument) pairs of a 1-D draw: contiguous, strided, reversed and of length 1."""
    twice, one = np.repeat(v, 2), v[:1].copy()
    return {"contiguous": (v, v), "strided": (twice, twice[::2]),
            "reversed": (v, v[::-1]), "one": (one, one)}


SHADOW = np.random.default_rng(3).standard_normal(7)
BUILDERS = {
    "gaussian_ula_shadowed": lambda f: gbsm.gaussian_ula_shadowed(
        gbsm.UlaGeometry(m=1), f, np.array([0.2, 1.1]), sigma_phi=0.1, beta=2.0),
    "exponential_with_shadowing": lambda f: cbsm.exponential_with_shadowing(f, 0.5, 0.3, 2.0),
    "uncorrelated_with_shadowing": lambda f: cbsm.uncorrelated_with_shadowing(2.0, f),
}


@pytest.mark.parametrize("layout", ["contiguous", "strided", "reversed", "one"])
@pytest.mark.parametrize("build", sorted(BUILDERS))
def test_shadowed_builders_leave_the_draw_unchanged(build, layout):
    owner, f = vector_inputs(SHADOW.copy())[layout]
    before = owner.tobytes()
    BUILDERS[build](f)
    assert owner.tobytes() == before


def test_shadowed_gaussian_leaves_its_angles_unchanged():
    angles = np.array([0.2, 1.1, 2.5, 4.0])
    before = angles.tobytes()
    gbsm.gaussian_ula_shadowed(gbsm.UlaGeometry(m=5), SHADOW[:5], angles[::2], sigma_phi=0.1)
    gbsm.gaussian_ula_shadowed(gbsm.UlaGeometry(m=5), SHADOW[:5], angles, sigma_phi=0.1)
    assert angles.tobytes() == before
