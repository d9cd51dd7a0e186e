import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrgxy.errors import ContractError
from qrgxy.numerics import MAX_DIM, eigh_symmetric, sqrt_psd

from oracles import charpoly_eigenvalues


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


# -- oracle agreement (these anchor everything downstream) ----------------

def test_eigenvalues_match_characteristic_polynomial_oracle():
    """8x8 eigenvalues against sign-change bisection of det(A - x*1)."""
    a = random_symmetric(8, seed=20240817)
    want = charpoly_eigenvalues(a)
    got = eigh_symmetric(a).eigenvalues
    assert np.max(np.abs(got - want)) <= 1e-8


# -- eigh_symmetric contract ----------------------------------------------

def test_eigh_reconstructs_matrix():
    a = random_symmetric(16, seed=3)
    dec = eigh_symmetric(a)
    back = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
    assert np.max(np.abs(back - a)) <= 1e-10 * np.max(np.abs(a))


def test_eigh_eigenvalues_ascending_and_trace():
    a = random_symmetric(12, seed=4)
    w = eigh_symmetric(a).eigenvalues
    assert np.all(np.diff(w) >= 0.0)
    assert abs(np.sum(w) - np.trace(a)) <= 1e-10 * max(1.0, abs(np.trace(a)))


def test_eigh_orthonormal_vectors():
    a = random_symmetric(10, seed=5)
    v = eigh_symmetric(a).eigenvectors
    assert np.max(np.abs(v.T @ v - np.eye(10))) <= 1e-12


def test_eigh_diagonal_matrix_exact():
    a = np.diag([3.0, -1.0, 2.0])
    w = eigh_symmetric(a).eigenvalues
    assert np.array_equal(w, np.array([-1.0, 2.0, 3.0]))


def test_eigh_rejects_nonsquare():
    with pytest.raises(ContractError, match="square"):
        eigh_symmetric(np.zeros((3, 4)))


def test_eigh_rejects_asymmetric_naming_entries():
    a = np.zeros((3, 3))
    a[0, 2] = 1.0
    with pytest.raises(ContractError, match=r"A\[0\]\[2\]"):
        eigh_symmetric(a)


def test_eigh_rejects_nan():
    # NaN fails every comparison, so a plain "dev > tol" test would pass it
    # and LAPACK, reading one triangle, would return [1, 1]
    with pytest.raises(ContractError, match="not symmetric"):
        eigh_symmetric([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ContractError, match="not symmetric"):
        eigh_symmetric(np.diag([1.0, np.nan]))


def test_eigh_rejects_oversized():
    with pytest.raises(ContractError, match=str(MAX_DIM)):
        eigh_symmetric(np.zeros((MAX_DIM + 1, MAX_DIM + 1)))


def test_eigh_rejects_empty():
    with pytest.raises(ContractError):
        eigh_symmetric(np.zeros((0, 0)))


def test_eigh_accepts_tiny_asymmetry():
    a = random_symmetric(6, seed=8)
    a[1, 2] += 1e-14 * np.max(np.abs(a))
    eigh_symmetric(a)  # within the symmetry tolerance


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10**6))
def test_eigh_reconstruction_property(n, seed):
    a = random_symmetric(n, seed)
    dec = eigh_symmetric(a)
    back = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
    scale = max(np.max(np.abs(a)), 1e-30)
    assert np.max(np.abs(back - a)) <= 1e-10 * scale


def test_eigh_of_a_stack_matches_each_matrix():
    stack = np.array([random_symmetric(5, seed) for seed in range(6)]).reshape(2, 3, 5, 5)
    dec = eigh_symmetric(stack)
    assert dec.eigenvalues.shape == (2, 3, 5) and dec.eigenvectors.shape == (2, 3, 5, 5)
    for idx in np.ndindex(2, 3):
        one = eigh_symmetric(stack[idx])
        assert np.array_equal(dec.eigenvalues[idx], one.eigenvalues)
        assert np.max(np.abs(np.abs(dec.eigenvectors[idx]) - np.abs(one.eigenvectors))) < 1e-12


def test_stack_with_one_asymmetric_matrix_raises_the_single_message():
    bad = random_symmetric(4, seed=1)
    bad[3, 1] += 1e-3
    with pytest.raises(ContractError) as single:
        eigh_symmetric(bad)
    stack = np.array([random_symmetric(4, seed=2), bad, random_symmetric(4, seed=3) * 100.0])
    with pytest.raises(ContractError) as stacked:
        eigh_symmetric(stack)
    assert str(stacked.value) == str(single.value)
    assert "A[3][1]" in str(single.value)


def test_stack_rejects_non_square_trailing_axes():
    with pytest.raises(ContractError, match="square"):
        eigh_symmetric(np.zeros((2, 3, 4)))
    with pytest.raises(ContractError, match="square"):
        eigh_symmetric(np.zeros(3))


# -- sqrt_psd contract -----------------------------------------------------

def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(9)
    b = rng.standard_normal((6, 6))
    a = b @ b.T
    r = sqrt_psd(a)
    assert np.max(np.abs(r @ r - a)) <= 1e-9
    assert np.max(np.abs(r - r.T)) <= 1e-12
    assert np.min(eigh_symmetric(r).eigenvalues) >= -1e-12


def test_sqrt_psd_identity_and_zero():
    assert np.allclose(sqrt_psd(np.eye(4)), np.eye(4), atol=1e-14)
    assert np.array_equal(sqrt_psd(np.zeros((3, 3))), np.zeros((3, 3)))


def test_sqrt_psd_diagonal():
    r = sqrt_psd(np.diag([4.0, 9.0]))
    assert np.allclose(r, np.diag([2.0, 3.0]), atol=1e-12)


def test_sqrt_psd_clamps_rounding_negatives():
    a = np.diag([1.0, -1e-13])  # rounding-level negativity is clamped to 0
    r = sqrt_psd(a)
    assert np.allclose(r, np.diag([1.0, 0.0]), atol=1e-6)


def test_sqrt_psd_rejects_indefinite_reporting_eigenvalue():
    with pytest.raises(ContractError, match=r"-5\.0+e-01"):
        sqrt_psd(np.diag([1.0, -0.5]))


def test_sqrt_psd_rejects_nan():
    with pytest.raises(ContractError, match="not symmetric"):
        sqrt_psd([[1.0, np.nan], [0.0, 1.0]])


def test_sqrt_psd_takes_one_matrix():
    with pytest.raises(ContractError, match="one matrix"):
        sqrt_psd(np.array([np.eye(3), np.eye(3)]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_sqrt_psd_square_property(n, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n))
    a = b @ b.T
    r = sqrt_psd(a)
    assert np.max(np.abs(r @ r - a)) <= 1e-9 * max(1.0, np.max(np.abs(a)))
