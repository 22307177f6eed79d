"""Operator and superoperator algebra on labelled state bases.

Conventions shared by the whole package:

* density matrices are vectorised row-major, ``vec(rho)[i*N + j] = rho[i, j]``,
  so the map ``rho -> A @ rho @ B`` has the supermatrix ``kron(A, B.T)``;
* energies and frequencies are angular (rad/s) with hbar = 1, rates are s^-1;
* every container copies its array argument and marks it read-only, which makes
  values safe to share between parameter-sweep workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.linalg import solve as linear_solve

from .errors import (
    DimensionMismatchError,
    NonDecayingGeneratorError,
    NumericalError,
    ValidationError,
)

HERMITIAN_RTOL = 1e-12
DENSITY_EIG_FLOOR = -1e-9
DENSITY_TRACE_CEILING = 1.0 + 1e-9
#: eigenvalues of a decaying generator must sit below -DECAY_MARGIN * ||L||
DECAY_MARGIN = 1e-12


def _freeze(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


def hermitian_defect(a: np.ndarray) -> float:
    """Frobenius norm of (a - a^dag) relative to ||a||; 0 for the zero matrix."""
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(a - a.conj().T) / scale)


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Row-major vectorisation of a square matrix."""
    return np.asarray(rho, dtype=complex).reshape(-1)


def unvectorize(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    return np.asarray(v, dtype=complex).reshape(dim, dim)


@dataclass(frozen=True)
class BasisLabel:
    """Ordered, unique labels for the states spanning the working space."""

    names: tuple

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        if len(self.names) < 2:
            raise ValidationError("basis needs at least two states")
        if len(set(self.names)) != len(self.names):
            raise ValidationError(f"duplicate state labels: {self.names}")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(str(name))
        except ValueError:
            raise ValidationError(
                f"no state {name!r} in basis {self.names}"
            ) from None


def _check_same_basis(a, b, what: str) -> None:
    if a.basis != b.basis:
        raise DimensionMismatchError(
            f"{what}: operands live on different bases "
            f"{a.basis.names} vs {b.basis.names}"
        )


class OperatorMatrix:
    """Square complex matrix attached to a basis.

    Entry units are context dependent (dimensionless projectors, rad/s
    Hamiltonians); the owning code documents which.
    """

    def __init__(self, basis: BasisLabel, entries, hermitian: bool = False):
        entries = np.asarray(entries, dtype=complex)
        if entries.shape != (basis.dim, basis.dim):
            raise DimensionMismatchError(
                f"operator shape {entries.shape} does not match basis dimension {basis.dim}"
            )
        if not np.all(np.isfinite(entries)):
            raise ValidationError("operator entries must be finite")
        if hermitian and hermitian_defect(entries) > HERMITIAN_RTOL:
            raise ValidationError("matrix flagged Hermitian fails the Hermiticity check")
        self.basis = basis
        self.entries = _freeze(entries)
        self.hermitian = bool(hermitian)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def is_hermitian(self, rtol: float = HERMITIAN_RTOL) -> bool:
        return hermitian_defect(self.entries) <= rtol

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def __repr__(self):
        return f"OperatorMatrix(basis={self.basis.names}, entries=\n{self.entries})"


class DensityMatrix:
    """Hermitian state matrix; trace may fall below one under reactive decay."""

    def __init__(self, basis: BasisLabel, entries):
        entries = np.asarray(entries, dtype=complex)
        if entries.shape != (basis.dim, basis.dim):
            raise DimensionMismatchError(
                f"state shape {entries.shape} does not match basis dimension {basis.dim}"
            )
        if not np.all(np.isfinite(entries)):
            raise ValidationError("density matrix entries must be finite")
        if hermitian_defect(entries) > 1e-10:
            raise ValidationError("density matrix is not Hermitian")
        tr = np.trace(entries)
        if abs(tr.imag) > 1e-10 or tr.real < -1e-9 or tr.real > DENSITY_TRACE_CEILING:
            raise ValidationError(f"density matrix trace {tr} outside [0, 1]")
        if np.linalg.eigvalsh(0.5 * (entries + entries.conj().T)).min() < DENSITY_EIG_FLOOR:
            raise ValidationError("density matrix has a negative eigenvalue")
        self.basis = basis
        self.entries = _freeze(0.5 * (entries + entries.conj().T))

    @classmethod
    def pure(cls, basis: BasisLabel, amplitudes) -> "DensityMatrix":
        """|psi><psi| for a state vector with norm at most one."""
        psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if psi.size != basis.dim:
            raise DimensionMismatchError("state vector length does not match basis")
        return cls(basis, np.outer(psi, psi.conj()))

    @classmethod
    def basis_state(cls, basis: BasisLabel, name: str) -> "DensityMatrix":
        psi = np.zeros(basis.dim, dtype=complex)
        psi[basis.index(name)] = 1.0
        return cls.pure(basis, psi)

    @classmethod
    def maximally_mixed(cls, basis: BasisLabel) -> "DensityMatrix":
        return cls(basis, np.eye(basis.dim) / basis.dim)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def population(self, name: str) -> float:
        i = self.basis.index(name)
        return float(self.entries[i, i].real)

    def coherence(self, row: str, col: str) -> complex:
        return complex(self.entries[self.basis.index(row), self.basis.index(col)])

    def __repr__(self):
        return f"DensityMatrix(basis={self.basis.names}, entries=\n{self.entries})"


class Superoperator:
    """Linear map on vectorised density matrices (N^2 x N^2 complex, s^-1)."""

    def __init__(self, basis: BasisLabel, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        d2 = basis.dim * basis.dim
        if matrix.shape != (d2, d2):
            raise DimensionMismatchError(
                f"supermatrix shape {matrix.shape} does not match basis dimension {basis.dim}"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValidationError("supermatrix entries must be finite")
        self.basis = basis
        self.matrix = _freeze(matrix)

    @classmethod
    def zero(cls, basis: BasisLabel) -> "Superoperator":
        d2 = basis.dim * basis.dim
        return cls(basis, np.zeros((d2, d2)))

    @classmethod
    def identity(cls, basis: BasisLabel) -> "Superoperator":
        return cls(basis, np.eye(basis.dim * basis.dim))

    @property
    def dim(self) -> int:
        return self.basis.dim

    def apply(self, rho) -> np.ndarray:
        """Apply to a density matrix (or raw array); returns a raw array."""
        if isinstance(rho, (DensityMatrix, OperatorMatrix)):
            _check_same_basis(self, rho, "apply")
            rho = rho.entries
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"state shape {rho.shape} does not match basis dimension {self.dim}"
            )
        return unvectorize(self.matrix @ vectorize(rho), self.dim)

    def norm(self) -> float:
        """Spectral norm, in s^-1."""
        return float(np.linalg.norm(self.matrix, 2))

    def hermiticity_defect_sample(self, trials: int = 4, seed: int = 7) -> float:
        """Largest |(L rho)^dag - L(rho^dag)| over random unit-norm matrices."""
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(trials):
            a = rng.normal(size=(self.dim, self.dim)) + 1j * rng.normal(size=(self.dim, self.dim))
            a /= np.linalg.norm(a)
            lhs = self.apply(a).conj().T
            rhs = self.apply(a.conj().T)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        return worst

    def __add__(self, other):
        _check_same_basis(self, other, "add")
        return Superoperator(self.basis, self.matrix + other.matrix)

    def __sub__(self, other):
        _check_same_basis(self, other, "subtract")
        return Superoperator(self.basis, self.matrix - other.matrix)

    def __neg__(self):
        return Superoperator(self.basis, -self.matrix)

    def __mul__(self, scalar):
        return Superoperator(self.basis, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other):
        _check_same_basis(self, other, "compose")
        return Superoperator(self.basis, self.matrix @ other.matrix)

    def __repr__(self):
        return f"Superoperator(basis={self.basis.names}, dim={self.dim})"


# ---------------------------------------------------------------------------
# superoperator constructors
# ---------------------------------------------------------------------------

def conjugation_super(a: OperatorMatrix, b: OperatorMatrix) -> Superoperator:
    """rho -> A rho B."""
    _check_same_basis(a, b, "conjugation_super")
    return Superoperator(a.basis, np.kron(a.entries, b.entries.T))


def commutator_super(a: OperatorMatrix) -> Superoperator:
    """rho -> A rho - rho A."""
    eye = np.eye(a.dim)
    return Superoperator(a.basis, np.kron(a.entries, eye) - np.kron(eye, a.entries.T))


def anticommutator_super(a: OperatorMatrix) -> Superoperator:
    """rho -> A rho + rho A."""
    eye = np.eye(a.dim)
    return Superoperator(a.basis, np.kron(a.entries, eye) + np.kron(eye, a.entries.T))


def sandwich_super(a: OperatorMatrix) -> Superoperator:
    """rho -> A rho A."""
    return conjugation_super(a, a)


def projector_dephasing_super(p: OperatorMatrix) -> Superoperator:
    """Lindblad-form dephasing across the P / (1 - P) split.

    rho -> (1/2)[P, rho]_+ - P rho P, identically (1/2)(P rho Q + Q rho P)
    with Q = 1 - P. Trace free; kills nothing inside either block.
    """
    return 0.5 * anticommutator_super(p) - sandwich_super(p)


def assemble_generator(
    h: OperatorMatrix,
    relaxers: Sequence[Superoperator] = (),
    reactors: Sequence[Superoperator] = (),
) -> Superoperator:
    """Full evolution generator  L = -i[H, .] + sum(relaxers) - sum(reactors).

    Relaxers are generators in their own right (e.g. a relaxation supermatrix);
    reactors are positive-decay superoperators K such that rho-dot contains
    -K rho.
    """
    gen = -1j * commutator_super(h)
    for r in relaxers:
        gen = gen + r
    for k in reactors:
        gen = gen - k
    return gen


# ---------------------------------------------------------------------------
# propagation and infinite-time integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Propagation:
    """Time-ordered sequence of states."""

    times: np.ndarray
    states: tuple

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(self.states))
        if times.ndim != 1 or times.size != len(self.states):
            raise ValidationError("times and states length mismatch")
        if times.size and (times[0] < 0 or np.any(np.diff(times) <= 0)):
            raise ValidationError("times must be nonnegative and strictly increasing")

    def populations(self) -> np.ndarray:
        """(n_times, N) array of real diagonal entries."""
        return np.array([s.entries.diagonal().real for s in self.states])

    def coherence(self, row: str, col: str) -> np.ndarray:
        return np.array([s.coherence(row, col) for s in self.states])

    def traces(self) -> np.ndarray:
        return np.array([s.trace() for s in self.states])


def _validated_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValidationError("times must be a non-empty 1-d sequence")
    if t[0] < 0 or np.any(np.diff(t) <= 0):
        raise ValidationError("times must be nonnegative and strictly increasing")
    return t


def _state_from_vector(basis: BasisLabel, v: np.ndarray) -> DensityMatrix:
    rho = unvectorize(v, basis.dim)
    if not np.all(np.isfinite(rho)):
        raise NumericalError("propagation produced non-finite entries")
    return DensityMatrix(basis, 0.5 * (rho + rho.conj().T))


def propagate(
    l: Superoperator,
    rho0: DensityMatrix,
    times: Iterable[float],
    method: str = "expm",
) -> Propagation:
    """Solve rho(t) = exp(L t) rho0 on the given time grid.

    ``method="expm"`` steps with dense matrix exponentials (scaling and
    squaring); ``method="rk"`` integrates with an adaptive explicit
    Runge-Kutta scheme. Both are exposed so they can cross-check each other;
    the matrix exponential is the default for the small systems handled here.
    """
    _check_same_basis(l, rho0, "propagate")
    t = _validated_times(times)
    if method == "expm":
        states = []
        cache: dict[str, np.ndarray] = {}
        v = vectorize(rho0.entries)
        prev = 0.0
        for tk in t:
            dt = tk - prev
            key = f"{dt:.15g}"
            step = cache.get(key)
            if step is None:
                step = expm(l.matrix * dt)
                cache[key] = step
            v = step @ v
            prev = tk
            states.append(_state_from_vector(l.basis, v))
        return Propagation(t, states)
    if method == "rk":
        m = l.matrix
        sol = solve_ivp(
            lambda _t, y: m @ y,
            (0.0, float(t[-1])),
            vectorize(rho0.entries),
            t_eval=t,
            method="DOP853",
            rtol=1e-10,
            atol=1e-12,
        )
        if not sol.success:
            raise NumericalError(f"Runge-Kutta integration failed: {sol.message}")
        states = [_state_from_vector(l.basis, sol.y[:, k]) for k in range(t.size)]
        return Propagation(t, states)
    raise ValidationError(f"unknown propagation method {method!r}")


def infinite_time_integral(l: Superoperator, rho0: DensityMatrix) -> OperatorMatrix:
    """X = integral of exp(L t) rho0 over t in [0, inf), by solving (-L) X = rho0.

    Requires every eigenvalue of L to sit strictly in the left half plane;
    otherwise the integral diverges (a non-decaying subspace, e.g. an
    unreactive population that never mixes).
    """
    _check_same_basis(l, rho0, "infinite_time_integral")
    norm = l.norm()
    eigs = np.linalg.eigvals(l.matrix)
    if norm == 0.0 or eigs.real.max() >= -DECAY_MARGIN * norm:
        raise NonDecayingGeneratorError(
            "generator has non-decaying modes "
            f"(max Re eigenvalue {eigs.real.max():.3e} vs norm {norm:.3e})"
        )
    x = linear_solve(-l.matrix, vectorize(rho0.entries))
    xm = unvectorize(x, l.dim)
    return OperatorMatrix(l.basis, 0.5 * (xm + xm.conj().T))
