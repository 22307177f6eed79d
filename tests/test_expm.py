"""The package's Padé matrix exponential against scipy.linalg.expm."""

import math

import numpy as np
import pytest
from _util import reference_expm

from spinkinetics import NumericalError, WhiteNoise, assemble_generator, relaxation_supermatrix
from spinkinetics._expm import expm
from spinkinetics.three_state import ThreeStateParams, build_bath


def _relative_difference(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _random_complex(n, norm, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a * (norm / np.abs(a).sum(axis=0).max())


# 1-norms from 1e-3 to 100 reach every Padé degree (3, 5, 7, 9, 13) and scaling
@pytest.mark.parametrize("norm", [1e-3, 0.1, 0.5, 1.5, 10.0, 100.0])
@pytest.mark.parametrize("n", [2, 3, 9, 16, 64, 256])
def test_random_complex_matrices_match_scipy(n, norm):
    a = _random_complex(n, norm, seed=n)
    assert _relative_difference(expm(a), reference_expm(a)) <= 1e-12


@pytest.mark.parametrize("d", [np.array([0.0, -1.5, 2.0, -700.0]),
                               np.array([1j, -2.0 + 3j, 0.0, -1e3 + 1e9j])],
                         ids=["real", "complex"])
def test_diagonal_input_is_the_exponential_of_its_diagonal(d):
    got = expm(np.diag(d))
    want = np.diag(np.exp(d))
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_the_zero_matrix_gives_the_identity():
    for dtype in (float, complex):
        got = expm(np.zeros((5, 5), dtype=dtype))
        assert np.array_equal(got, np.eye(5))


def _triangular(lower, seed):
    rng = np.random.default_rng(seed)
    a = 20.0 * (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    return np.tril(a) if lower else np.triu(a)


@pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
def test_triangular_input_stays_triangular_and_matches_scipy(lower):
    a = _triangular(lower, seed=8)
    got = expm(a)
    zero = np.triu(got, 1) if lower else np.tril(got, -1)
    assert not zero.any()
    assert np.array_equal(np.diag(got), np.exp(np.diag(a)))
    assert _relative_difference(got, reference_expm(a)) <= 1e-12


def test_three_state_generator_over_a_long_step():
    # omega_s = 1e9 rad/s against a 1 /s decay: L dt is lower triangular with
    # a 1-norm of 2.5e8, and rho_11 decays as exp(-t) to the last digits
    p = ThreeStateParams(omega0=0.0, omega_s=1e9, beta=math.inf,
                         transverse=WhiteNoise(level=1.0))
    h, bath = build_bath(p)
    a = assemble_generator(h, relaxers=[relaxation_supermatrix(bath, h)]).matrix * 0.25
    assert not np.triu(a, 1).any() and np.tril(a, -1).any()
    got = expm(a)
    rho11 = 1 * 3 + 1  # vec index of rho[1, 1]
    assert got[rho11, rho11].real == pytest.approx(math.exp(-0.25), rel=1e-15)
    assert _relative_difference(got, reference_expm(a)) <= 1e-12


def test_large_norm_generator_matches_scipy():
    # a Hermitian-commutator generator plus decay, 1-norm about 3e3: 10 squarings
    rng = np.random.default_rng(4)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    eye = np.eye(4)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T)) - 0.5 * np.eye(16)
    a = gen * (3e3 / np.abs(gen).sum(axis=0).max())
    assert _relative_difference(expm(a), reference_expm(a)) <= 1e-12


@pytest.mark.parametrize("scale", [math.inf, math.nan, 1e200],
                         ids=["infinite", "nan", "overflowing-powers"])
def test_a_non_finite_norm_is_a_numerical_error(scale):
    a = _random_complex(3, 1.0, seed=1) * scale
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError,
                                                                     match="matrix exponential"):
        expm(a)
