import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrgxy.errors import RealArithmeticError
from qrgxy.pauli import (
    Axis,
    SIGMA_Y_REAL,
    basis_label,
    embed_pauli,
    embed_y_real,
    parity_operator,
    spin_flip,
    two_site_term,
)

from oracles import SY, embed_complex, kron_quadruple_loop


# run once: the whole real-arithmetic rewrite against textbook complex Paulis
def test_real_pauli_algebra_matches_complex_oracle():
    # the real y block is exactly -i sigma^y
    assert np.max(np.abs(SIGMA_Y_REAL - (-1j * SY).real)) == 0.0
    assert np.max(np.abs((-1j * SY).imag)) == 0.0
    for n, a, b in [(2, 0, 1), (3, 0, 2), (5, 1, 4), (7, 2, 6)]:
        yy = embed_complex(SY, a, n) @ embed_complex(SY, b, n)
        assert np.max(np.abs(yy.imag)) == 0.0  # even y count is real
        assert np.max(np.abs(two_site_term(Axis.Y, a, b, n) - yy.real)) == 0.0
        xa = embed_complex(np.array([[0, 1], [1, 0]], dtype=complex), a, n)
        xb = embed_complex(np.array([[0, 1], [1, 0]], dtype=complex), b, n)
        got = two_site_term(Axis.X, a, b, n)
        assert np.max(np.abs(got - (xa @ xb).real)) == 0.0


def test_spin_flip_reproduces_x_and_y_embeddings_exactly():
    rng = np.random.default_rng(7)
    for n in range(1, 8):
        for site in range(n):
            v = rng.standard_normal(2 ** n)
            flip, signs = spin_flip(site, n)
            assert np.array_equal(v @ embed_pauli(Axis.X, site, n), v[flip])
            assert np.array_equal(v @ embed_y_real(site, n), v[flip] * signs)
    with pytest.raises(ValueError, match="out of range"):
        spin_flip(3, 3)


def test_embed_z_example():
    assert np.array_equal(embed_pauli(Axis.Z, 1, 2), np.diag([1.0, -1.0, 1.0, -1.0]))


def test_embed_x_single_spin():
    assert np.array_equal(embed_pauli(Axis.X, 0, 1), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_embed_x_first_site_is_first_factor():
    got = embed_pauli(Axis.X, 0, 2)
    want = kron_quadruple_loop(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
    assert np.array_equal(got, want)


def test_embed_rejects_standalone_y():
    with pytest.raises(RealArithmeticError, match="two_site_term"):
        embed_pauli(Axis.Y, 0, 3)


def test_embed_y_real_antisymmetric_squares_to_minus_one():
    k = embed_y_real(1, 3)
    assert np.array_equal(k, -k.T)
    assert np.array_equal(k @ k, -np.eye(8))


def test_two_site_yy_example():
    want = np.array(
        [
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0],
        ]
    )
    assert np.array_equal(two_site_term(Axis.Y, 0, 1, 2), want)


def test_two_site_term_symmetric_matrix_and_site_order():
    for axis in (Axis.X, Axis.Y):
        t = two_site_term(axis, 1, 3, 5)
        assert np.array_equal(t, t.T)
        assert np.array_equal(t, two_site_term(axis, 3, 1, 5))
        assert np.array_equal(t @ t, np.eye(32))


def test_two_site_term_rejections():
    with pytest.raises(ValueError, match="coincident"):
        two_site_term(Axis.X, 2, 2, 3)
    with pytest.raises(ValueError, match="X and Y"):
        two_site_term(Axis.Z, 0, 1, 3)
    with pytest.raises(ValueError, match="out of range"):
        two_site_term(Axis.X, 0, 3, 3)


def test_site_range_and_register_size_checks():
    with pytest.raises(ValueError, match="out of range"):
        embed_pauli(Axis.X, 3, 3)
    with pytest.raises(ValueError, match="n_spins"):
        embed_pauli(Axis.X, 0, 8)
    with pytest.raises(ValueError, match="n_spins"):
        parity_operator(0)


def test_parity_operator_examples():
    assert np.array_equal(parity_operator(1), np.diag([1.0, -1.0]))
    assert np.array_equal(parity_operator(2), np.diag([1.0, -1.0, -1.0, 1.0]))
    p3 = parity_operator(3)
    assert np.array_equal(p3 @ p3, np.eye(8))
    # product of all single-site z embeddings
    prod = np.eye(8)
    for k in range(3):
        prod = prod @ embed_pauli(Axis.Z, k, 3)
    assert np.array_equal(p3, prod)


def test_parity_anticommutes_with_single_x_commutes_with_pairs():
    p = parity_operator(3)
    x1 = embed_pauli(Axis.X, 1, 3)
    assert np.array_equal(p @ x1, -x1 @ p)
    for axis in (Axis.X, Axis.Y):
        t = two_site_term(axis, 0, 2, 3)
        assert np.array_equal(p @ t, t @ p)


def test_basis_label_convention():
    assert basis_label(0, 3) == "↑↑↑"
    assert basis_label(1, 3) == "↑↑↓"  # spin 2 lives in the least significant bit
    assert basis_label(6, 3) == "↓↓↑"
    assert basis_label(2 ** 7 - 1, 7) == "↓" * 7
    with pytest.raises(ValueError):
        basis_label(8, 3)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([Axis.X, Axis.Z]),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_embedding_involution_property(axis, n, data):
    site = data.draw(st.integers(min_value=0, max_value=n - 1))
    op = embed_pauli(axis, site, n)
    assert np.array_equal(op, op.T)
    assert np.array_equal(op @ op, np.eye(2 ** n))
    assert np.trace(op) == 0.0
