"""Shared helpers for the test suite."""

import numpy as np


def random_hermitian(n, rng, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (a + a.conj().T)
    return scale * h / np.linalg.norm(h)


def random_density(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_state(n, rng):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def hermiticity_defect_sample(superop):
    """Largest |(L rho)^dag - L(rho^dag)| over four seeded random unit-norm matrices."""
    rng = np.random.default_rng(7)
    n = superop.dim
    worst = 0.0
    for _ in range(4):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a /= np.linalg.norm(a)
        lhs = superop.apply(a).conj().T
        rhs = superop.apply(a.conj().T)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst
