"""Operator and superoperator algebra on labelled state bases.

Conventions shared by the whole package:

* density matrices are vectorised row-major, ``vec(rho)[i*N + j] = rho[i, j]``,
  so the map ``rho -> A @ rho @ B`` has the supermatrix ``kron(A, B.T)``;
* energies and frequencies are angular (rad/s) with hbar = 1, rates are s^-1;
* every container copies its array argument and marks it read-only, which makes
  values safe to share between parameter-sweep workers;
* a value is checked once, where it enters the package: at the public
  constructors and the CLI schema. Package code that derives one checked value
  from another (a matrix Hermitian by construction, a relabelled coupling, a
  generator summed from checked parts) does not check it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._blas import one_thread
from ._expm import expm
from .errors import (
    DimensionMismatchError,
    NonDecayingGeneratorError,
    NumericalError,
    ValidationError,
)

HERMITIAN_RTOL = 1e-12
#: density matrices: Hermitian defect and |Im tr|, trace range, eigenvalue floor
DENSITY_HERMITIAN_TOL = 1e-10
DENSITY_TRACE_FLOOR = -1e-9
DENSITY_TRACE_CEILING = 1.0 + 1e-9
DENSITY_EIG_FLOOR = -1e-9
#: eigenvalues of a decaying generator must sit below -DECAY_MARGIN * ||L||
DECAY_MARGIN = 1e-12
#: propagation steps whose lengths agree within this relative tolerance share
#: one matrix exponential
STEP_RTOL = 1e-12


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

    def vec_index(self, row: str, col: str) -> int:
        """Row-major position of rho[row, col] in ``vectorize(rho)``."""
        return self.index(row) * self.dim + self.index(col)


def _checked_entries(entries, side: int, what: str) -> np.ndarray:
    """Complex (side, side) array with finite entries, else raise."""
    entries = np.asarray(entries, dtype=complex)
    if entries.shape != (side, side):
        raise DimensionMismatchError(f"{what} shape {entries.shape} is not {(side, side)}")
    if not np.all(np.isfinite(entries)):
        raise ValidationError(f"{what} entries must be finite")
    return entries


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
        entries = _checked_entries(entries, basis.dim, "operator")
        if hermitian and hermitian_defect(entries) > HERMITIAN_RTOL:
            raise ValidationError("matrix flagged Hermitian fails the Hermiticity check")
        self.basis = basis
        self.entries = _freeze(entries)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def is_hermitian(self, rtol: float = HERMITIAN_RTOL) -> bool:
        return hermitian_defect(self.entries) <= rtol

    def __repr__(self):
        return f"OperatorMatrix(basis={self.basis.names}, entries=\n{self.entries})"


class DensityMatrix:
    """Hermitian state matrix; trace may fall below one under reactive decay."""

    def __init__(self, basis: BasisLabel, entries):
        entries = _checked_entries(entries, basis.dim, "state")
        if (hermitian_defect(entries) > DENSITY_HERMITIAN_TOL
                or abs(np.trace(entries).imag) > DENSITY_HERMITIAN_TOL):
            raise ValidationError("density matrix is not Hermitian")
        self.basis = basis
        self.entries = _density_stack(entries[np.newaxis])[0]

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

    def __repr__(self):
        return f"DensityMatrix(basis={self.basis.names}, entries=\n{self.entries})"


class Superoperator:
    """Linear map on vectorised density matrices (N^2 x N^2 complex, s^-1)."""

    def __init__(self, basis: BasisLabel, matrix):
        matrix = _checked_entries(matrix, basis.dim**2, "supermatrix")
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
        """Spectral norm, in s^-1, from an SVD on one BLAS thread."""
        with one_thread(self.matrix.shape[0]):
            return float(np.linalg.norm(self.matrix, 2))

    def __add__(self, other):
        _check_same_basis(self, other, "add")
        return Superoperator(self.basis, self.matrix + other.matrix)

    def __sub__(self, other):
        _check_same_basis(self, other, "subtract")
        return Superoperator(self.basis, self.matrix - other.matrix)

    def __mul__(self, scalar):
        return Superoperator(self.basis, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"Superoperator(basis={self.basis.names}, dim={self.dim})"


# ---------------------------------------------------------------------------
# superoperator constructors
# ---------------------------------------------------------------------------

def _sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Supermatrix of rho -> a rho b under row-major vectorisation: kron(a, b.T)."""
    n = a.shape[0]
    return (a[:, None, :, None] * b.T[None, :, None, :]).reshape(n * n, n * n)


def conjugation_super(a: OperatorMatrix, b: OperatorMatrix) -> Superoperator:
    """rho -> A rho B."""
    _check_same_basis(a, b, "conjugation_super")
    return Superoperator(a.basis, _sandwich(a.entries, b.entries))


def _commutator(a: np.ndarray) -> np.ndarray:
    eye = np.eye(a.shape[0])
    return _sandwich(a, eye) - _sandwich(eye, a)


def commutator_super(a: OperatorMatrix) -> Superoperator:
    """rho -> A rho - rho A."""
    return Superoperator(a.basis, _commutator(a.entries))


def _anticommutator(a: np.ndarray) -> np.ndarray:
    eye = np.eye(a.shape[0])
    return _sandwich(a, eye) + _sandwich(eye, a)


def _projector_dephasing(p: np.ndarray) -> np.ndarray:
    # complex scalars, as Superoperator's * multiplies, keep every bit of the sum
    return _anticommutator(p) * complex(0.5) - _sandwich(p, p)


def anticommutator_super(a: OperatorMatrix) -> Superoperator:
    """rho -> A rho + rho A."""
    return Superoperator(a.basis, _anticommutator(a.entries))


def sandwich_super(a: OperatorMatrix) -> Superoperator:
    """rho -> A rho A."""
    return conjugation_super(a, a)


def projector_dephasing_super(p: OperatorMatrix) -> Superoperator:
    """Lindblad-form dephasing across the P / (1 - P) split.

    rho -> (1/2)[P, rho]_+ - P rho P, identically (1/2)(P rho Q + Q rho P)
    with Q = 1 - P. Trace free; kills nothing inside either block.
    """
    return Superoperator(p.basis, _projector_dephasing(p.entries))


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
    gen = _commutator(h.entries) * -1j
    for r in relaxers:
        _check_same_basis(h, r, "add")
        gen = gen + r.matrix
    for k in reactors:
        _check_same_basis(h, k, "subtract")
        gen = gen - k.matrix
    return Superoperator(h.basis, gen)


# ---------------------------------------------------------------------------
# propagation and infinite-time integrals
# ---------------------------------------------------------------------------

def _density_stack(stack: np.ndarray, times=None) -> np.ndarray:
    """Hermitised, read-only copy of a (n, N, N) stack of density matrices.

    Every propagation path and every DensityMatrix goes through this check.
    Non-finite entries raise NumericalError; a trace or smallest eigenvalue
    outside the DENSITY_* bounds raises ValidationError for the first such
    slice, naming its time (when ``times`` is given), trace and lambda_min.
    """
    if not np.all(np.isfinite(stack)):
        raise NumericalError("propagation produced non-finite entries")
    stack = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
    traces = np.trace(stack, axis1=1, axis2=2).real
    lambda_min = np.linalg.eigvalsh(stack)[:, 0]
    bad = np.flatnonzero((traces < DENSITY_TRACE_FLOOR) | (traces > DENSITY_TRACE_CEILING)
                         | (lambda_min < DENSITY_EIG_FLOOR))
    if bad.size:
        k = bad[0]
        at = "" if times is None else f" at t = {times[k]:.12g} s"
        raise ValidationError(f"density matrix{at} is not a state: trace {traces[k]:.12g}, "
                              f"lambda_min {lambda_min[k]:.6g} (floor {DENSITY_EIG_FLOOR:g})")
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True)
class Propagation:
    """``states[k]`` is rho(``times[k]``): one read-only (n_times, N, N) array."""

    basis: BasisLabel
    times: np.ndarray
    states: np.ndarray

    def populations(self) -> np.ndarray:
        """(n_times, N) array of real diagonal entries."""
        return self.states.diagonal(axis1=1, axis2=2).real

    def coherence(self, row: str, col: str) -> np.ndarray:
        return self.states[:, self.basis.index(row), self.basis.index(col)]

    def traces(self) -> np.ndarray:
        return np.trace(self.states, axis1=1, axis2=2).real


def _validated_times(times) -> np.ndarray:
    t = np.array(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValidationError("times must be a non-empty 1-d sequence")
    if t[0] < 0 or np.any(np.diff(t) <= 0):
        raise ValidationError("times must be nonnegative and strictly increasing")
    t.setflags(write=False)
    return t


def _expm_steps(generator: np.ndarray, v0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(n_times, len(v0)) array of exp(generator t_k) v0, stepping time to time.

    One matrix exponential per step length, within ``STEP_RTOL``: a step
    reuses the matrix of the last one computed when the two lengths agree
    within ``STEP_RTOL`` relative, so a ``linspace`` grid, whose steps differ
    by an ulp, costs one. A zero step (a grid that starts at 0) leaves the
    vector as it is.
    """
    out = np.empty((times.size, v0.size), dtype=complex)
    v, prev = v0, 0.0
    step, length = None, 0.0
    for k, tk in enumerate(times):
        dt = tk - prev
        if dt != 0.0:
            if abs(dt - length) > STEP_RTOL * length:
                step, length = expm(generator * dt), dt
            v = step @ v
        out[k] = v
        prev = tk
    return out


def propagate(l: Superoperator, rho0: DensityMatrix, times: Iterable[float]) -> Propagation:
    """Solve rho(t) = exp(L t) rho0 on the given time grid.

    Steps with dense matrix exponentials (scaling and squaring), one matrix
    exponential per step length, within ``STEP_RTOL``.
    """
    _check_same_basis(l, rho0, "propagate")
    t = _validated_times(times)
    n = l.dim
    with one_thread(n * n):
        vectors = _expm_steps(l.matrix, vectorize(rho0.entries), t)
    return Propagation(l.basis, t, _density_stack(vectors.reshape(t.size, n, n), t))


def infinite_time_integral(l: Superoperator, rho0: DensityMatrix) -> OperatorMatrix:
    """X = integral of exp(L t) rho0 over t in [0, inf), by solving (-L) X = rho0.

    Requires every eigenvalue of L to sit strictly in the left half plane;
    otherwise the integral diverges (a non-decaying subspace, e.g. an
    unreactive population that never mixes).
    """
    _check_same_basis(l, rho0, "infinite_time_integral")
    with one_thread(l.matrix.shape[0]):
        norm = l.norm()
        eigs = np.linalg.eigvals(l.matrix)
        if norm == 0.0 or eigs.real.max() >= -DECAY_MARGIN * norm:
            raise NonDecayingGeneratorError(
                "generator has non-decaying modes "
                f"(max Re eigenvalue {eigs.real.max():.3e} vs norm {norm:.3e})"
            )
        x = np.linalg.solve(-l.matrix, vectorize(rho0.entries))
    xm = unvectorize(x, l.dim)
    return OperatorMatrix(l.basis, 0.5 * (xm + xm.conj().T))
