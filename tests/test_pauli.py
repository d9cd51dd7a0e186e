import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrgxy.concurrence import _YY
from qrgxy.pauli import SIGMA_X, SIGMA_Y_REAL, basis_label, spin_flip

from oracles import SX, SY, embed_complex


def _popcount_parity(n):
    return np.array([bin(i).count("1") % 2 for i in range(2 ** n)])


# run once: the whole real-arithmetic rewrite against textbook complex Paulis
def test_real_pauli_algebra_matches_complex_oracle():
    # the real y block is exactly -i sigma^y
    assert np.max(np.abs(SIGMA_X - SX.real)) == 0.0
    assert np.max(np.abs(SIGMA_Y_REAL - (-1j * SY).real)) == 0.0
    assert np.max(np.abs((-1j * SY).imag)) == 0.0
    # sy_a sy_b = -(K_a K_b) and sx_a sx_b, applied through the spin flips
    rng = np.random.default_rng(3)
    for n, a, b in [(2, 0, 1), (3, 0, 2), (5, 1, 4), (7, 2, 6)]:
        v = rng.standard_normal(2 ** n)
        (flip_a, signs_a), (flip_b, signs_b) = spin_flip(a, n), spin_flip(b, n)
        yy = embed_complex(SY, a, n) @ embed_complex(SY, b, n)
        assert np.max(np.abs(yy.imag)) == 0.0  # even y count is real
        k_a_v = v[flip_a] * signs_a
        assert np.array_equal(v @ yy.real, -(k_a_v[flip_b] * signs_b))
        xx = embed_complex(SX, a, n) @ embed_complex(SX, b, n)
        assert np.array_equal(v @ xx.real, v[flip_a][flip_b])


def test_spin_flip_reproduces_x_and_y_embeddings_exactly():
    rng = np.random.default_rng(7)
    for n in range(1, 8):
        for site in range(n):
            v = rng.standard_normal(2 ** n)
            flip, signs = spin_flip(site, n)
            assert np.array_equal(v @ embed_complex(SX, site, n).real, v[flip])
            assert np.array_equal(v @ (-1j * embed_complex(SY, site, n)).real, v[flip] * signs)
    with pytest.raises(ValueError, match="out of range"):
        spin_flip(3, 3)


def test_two_site_yy_example():
    # the sigma^y x sigma^y of the Wootters spin flip
    want = np.array(
        [
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0],
        ]
    )
    assert np.array_equal(_YY, want)
    assert np.array_equal(_YY, np.kron(SY, SY).real)


def test_site_range_and_register_size_checks():
    with pytest.raises(ValueError, match="out of range"):
        spin_flip(3, 3)
    with pytest.raises(ValueError, match="n_spins"):
        spin_flip(0, 8)
    with pytest.raises(ValueError, match="n_spins"):
        spin_flip(0, 0)


def test_parity_anticommutes_with_single_x_commutes_with_pairs():
    # parity diag((-1)^popcount): one flipped spin changes it, two restore it
    parity = _popcount_parity(3)
    flip_1, _ = spin_flip(1, 3)
    assert np.array_equal(parity[flip_1], 1 - parity)
    flip_0, _ = spin_flip(0, 3)
    flip_2, _ = spin_flip(2, 3)
    assert np.array_equal(parity[flip_0[flip_2]], parity)


def test_basis_label_convention():
    assert basis_label(0, 3) == "↑↑↑"
    assert basis_label(1, 3) == "↑↑↓"  # spin 2 lives in the least significant bit
    assert basis_label(6, 3) == "↓↓↑"
    assert basis_label(2 ** 7 - 1, 7) == "↓" * 7
    with pytest.raises(ValueError):
        basis_label(8, 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_embedding_involution_property(n, data):
    # sigma^x at one site is a fixed-point-free involution, so symmetric,
    # squaring to one and traceless; (-i sigma^y) squares to minus one
    site = data.draw(st.integers(min_value=0, max_value=n - 1))
    flip, signs = spin_flip(site, n)
    index = np.arange(2 ** n)
    assert np.array_equal(flip[flip], index)
    assert not np.any(flip == index)
    assert np.array_equal(signs * signs[flip], -np.ones(2 ** n))
