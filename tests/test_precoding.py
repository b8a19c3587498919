import numpy as np
import pytest

from chansim.errors import InvalidParam, RankDeficient, ZeroColumn
from chansim.linalg import complex_gaussian
from chansim.precoding import cb_precoder, normalize_columns, zf_precoder


def random_h(m, k, seed):
    return complex_gaussian((m, k), np.random.default_rng(seed))


def test_power_allocation_equal():
    h = random_h(10, 2, 11)
    w = normalize_columns(cb_precoder(h), np.full(2, 1.0 / 2))
    assert np.allclose(np.linalg.norm(w, axis=0), 0.5)
    with pytest.raises(InvalidParam, match="per-user powers must be >= 0"):
        normalize_columns(cb_precoder(h), np.array([-0.1, 1.1]))


@pytest.mark.parametrize("p, message", [
    (np.ones((2, 1)), "power allocation must be a 1-D vector"),
    (np.ones(0), "power allocation must be a 1-D vector"),
    (np.ones(3), "allocation length 3 does not match K=2"),
])
def test_normalize_rejects_bad_power_shape(p, message):
    with pytest.raises(InvalidParam, match=message):
        normalize_columns(cb_precoder(random_h(10, 2, 12)), p)


def test_normalize_rejects_non_matrix():
    with pytest.raises(InvalidParam, match="precoding matrix must be 2-D"):
        normalize_columns(np.ones(4), np.ones(1))


def test_cb_is_channel():
    h = random_h(16, 4, 0)
    assert np.array_equal(cb_precoder(h), h)


def test_cb_column_norms():
    h = random_h(100, 10, 1)
    w = cb_precoder(h)
    assert np.allclose(np.linalg.norm(w, axis=0), np.linalg.norm(h, axis=0))


def test_zf_defining_property():
    h = random_h(100, 10, 2)
    w = zf_precoder(h)
    resid = np.abs(h.conj().T @ w - np.eye(10)).max()
    assert resid <= 1e-9


def test_zf_orthogonal_columns_parallel_to_cb():
    # orthogonal-column H: ZF columns are scaled channel columns
    h = np.zeros((6, 3), dtype=complex)
    h[0, 0] = 2.0
    h[2, 1] = 1.0 + 1j
    h[5, 2] = -3j
    w = zf_precoder(h)
    for k in range(3):
        cross = abs(np.vdot(h[:, k], w[:, k]))
        assert np.isclose(cross, np.linalg.norm(h[:, k]) * np.linalg.norm(w[:, k]))


def test_zf_k_greater_than_m():
    with pytest.raises(RankDeficient):
        zf_precoder(random_h(4, 6, 3))


def test_zf_singular_gram():
    h = np.ones((8, 2), dtype=complex)  # identical columns
    with pytest.raises(RankDeficient):
        zf_precoder(h)


def test_normalize_unit_powers():
    h = random_h(12, 4, 4)
    w = normalize_columns(cb_precoder(h), np.ones(4))
    assert np.allclose(np.linalg.norm(w, axis=0), 1.0)


def test_normalize_column_norm_equals_pk():
    h = random_h(12, 4, 5)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    w = normalize_columns(zf_precoder(h), p)
    assert np.allclose(np.linalg.norm(w, axis=0), p)


def test_normalize_equal_split_table_value():
    h = random_h(100, 10, 6)
    w = normalize_columns(cb_precoder(h), np.full(10, 1.0 / 10))
    assert np.allclose(np.linalg.norm(w, axis=0), 0.1)


def test_normalize_power_convention():
    h = random_h(12, 4, 7)
    p = np.full(4, 1.0 / 4)
    w = normalize_columns(cb_precoder(h), p, power_convention="power")
    assert np.allclose(np.linalg.norm(w, axis=0) ** 2, 0.25)
    with pytest.raises(InvalidParam):
        normalize_columns(cb_precoder(h), p, power_convention="energy")


def test_normalize_idempotent():
    h = random_h(10, 3, 8)
    p = np.array([0.5, 0.25, 0.25])
    once = normalize_columns(cb_precoder(h), p)
    twice = normalize_columns(once, p)
    assert np.allclose(once, twice)


def test_normalize_zero_column():
    h = random_h(10, 3, 9)
    h[:, 1] = 0
    with pytest.raises(ZeroColumn):
        normalize_columns(cb_precoder(h), np.full(3, 1.0 / 3))


def test_zf_diagonal_after_normalization():
    h = random_h(64, 8, 10)
    w = normalize_columns(zf_precoder(h), np.full(8, 1.0 / 8))
    g = h.conj().T @ w
    off = g - np.diag(np.diag(g))
    assert np.abs(off).max() <= 1e-9 * np.linalg.norm(h)
    assert np.all(np.diag(g).real > 0)
    assert np.abs(np.diag(g).imag).max() <= 1e-9 * np.linalg.norm(h)
