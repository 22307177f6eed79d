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

Every generator the package builds preserves Hermiticity: -i[H, .], the
Redfield R and the reaction K. In the Hermitian operator basis E_jj,
E_jk + E_kj and i(E_jk - E_kj) (j < k) such a map is a real N^2 x N^2 matrix
and a density matrix has real coordinates (Havel, J. Math. Phys. 44, 534
(2003)). ``propagate``, ``infinite_time_integral`` and ``Superoperator.norm``
therefore map the generator into that basis once and run their linear algebra
on real arrays. The map pairs the (j, k) and (k, j) columns, then the rows;
its factors are 1/2 and +-i, so a Hermitian state goes to real coordinates and
back bit for bit. A superoperator whose imaginary part in that basis exceeds
``HERMITIAN_RTOL`` of its largest entry does not preserve Hermiticity, and
these three raise NumericalError for it. One exception: a generator that is
triangular in the vec basis (three-state at beta = inf, where H is diagonal)
keeps that basis, because ``expm`` is exact on the diagonal of a triangular
matrix and rotating coherences into real 2 x 2 blocks would lose that.

Every propagated state is checked for trace and positivity. Positivity is a
Cholesky factorisation of rho - DENSITY_EIG_FLOOR * I, taken a bounded slice
of the stack at a time; eigenvalues are computed only to name a state that
fails. A stack built from real coordinates is Hermitian by construction, so
it is written with the bits that Hermitising it would give and not
Hermitised again; every other stack is.
"""

from __future__ import annotations

import functools
import math
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
#: bytes of shifted states that the positivity check factorises at a time. A
#: slice and its factor of 64 KiB reuse heap memory; at 512 KiB each took fresh
#: pages, and a cold radical-pair run made 511 minor page faults, not 235
STATE_SLICE_BYTES = 2**16
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
        """Spectral norm, in s^-1, from an SVD on one BLAS thread (see
        :func:`_working_form`); NumericalError if the map does not preserve
        Hermiticity."""
        g, real = _working_form(self)
        with one_thread(self.matrix.shape[0]):
            return _spectral_norm(g, self.dim, real)

    def __repr__(self):
        return f"Superoperator(basis={self.basis.names}, dim={self.dim})"


# ---------------------------------------------------------------------------
# superoperator constructors
# ---------------------------------------------------------------------------

def _sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Supermatrix of rho -> a rho b under row-major vectorisation: kron(a, b.T).

    (k, N, N) stacks give the sum over k, in einsum's own loop (optimize=False,
    never BLAS), so its bits do not follow the thread count.
    """
    n = a.shape[-1]
    if a.ndim == 3:
        return np.einsum("kij,kml->iljm", a, b).reshape(n * n, n * n)
    return (a[:, None, :, None] * b.T[None, :, None, :]).reshape(n * n, n * n)


def _commutator(a: np.ndarray) -> np.ndarray:
    eye = np.eye(a.shape[0])
    return _sandwich(a, eye) - _sandwich(eye, a)


def _anticommutator(a: np.ndarray) -> np.ndarray:
    eye = np.eye(a.shape[0])
    return _sandwich(a, eye) + _sandwich(eye, a)


def _projector_dephasing(p: np.ndarray) -> np.ndarray:
    """Lindblad-form dephasing across the P / (1 - P) split.

    rho -> (1/2)[P, rho]_+ - P rho P, identically (1/2)(P rho Q + Q rho P)
    with Q = 1 - P. Trace free; kills nothing inside either block.
    """
    # the complex scalar keeps the bits the radical-pair golden series were written with
    return _anticommutator(p) * complex(0.5) - _sandwich(p, p)


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
# the Hermitian operator basis
# ---------------------------------------------------------------------------

@functools.cache
def _pairs(n: int) -> tuple:
    """Read-only vec positions of (j, k) and of (k, j) for j < k, and the
    spectral-norm scale of each coordinate (1 on the diagonal, sqrt 2 off it).

    A coordinate sits where its vec entry does: x[jj] = rho[j, j],
    x[jk] = Re rho[j, k] and x[kj] = Im rho[j, k], so that
    rho = sum x[jj] E_jj + sum_{j<k} x[jk] (E_jk + E_kj) + x[kj] i(E_jk - E_kj).
    """
    j, k = np.triu_indices(n, 1)
    scale = np.ones(n * n)
    scale[j * n + k] = scale[k * n + j] = math.sqrt(2.0)
    pairs = (j * n + k, k * n + j, scale)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def _real_coordinates(v: np.ndarray, n: int) -> np.ndarray:
    """Real coordinates of the vec of a Hermitian matrix."""
    upper, lower, _ = _pairs(n)
    x = v.real.copy()
    x[lower] = v.imag[upper]
    return x


def _hermitian_form(matrix: np.ndarray, n: int) -> np.ndarray:
    """T^-1 G T for the basis change T of :func:`_pairs`, as a real array.

    NumericalError if its imaginary part exceeds HERMITIAN_RTOL of its
    largest entry: G does not preserve Hermiticity.
    """
    upper, lower, _ = _pairs(n)
    m = matrix.copy()
    a, b = matrix[:, upper], matrix[:, lower]
    m[:, upper] = a + b
    m[:, lower] = 1j * (a - b)
    a, b = m[upper], m[lower]
    m[upper] = 0.5 * (a + b)
    m[lower] = -0.5j * (a - b)
    largest, defect = np.abs(m.real).max(), np.abs(m.imag).max()
    if defect > HERMITIAN_RTOL * largest:
        raise NumericalError(
            "superoperator does not preserve Hermiticity: its imaginary part in the "
            f"Hermitian operator basis reaches {defect:.3e} against a largest entry of "
            f"{largest:.3e} (tolerance {HERMITIAN_RTOL:g} relative)")
    return np.ascontiguousarray(m.real)


def _working_form(l: Superoperator) -> tuple:
    """(generator, whether it is in the Hermitian basis) for the linear algebra.

    The Hermitian form is always taken, so a map that does not preserve
    Hermiticity raises NumericalError; a generator triangular in the vec
    basis is returned as it is (see the module docstring).
    """
    form = _hermitian_form(l.matrix, l.dim)
    rows, cols = np.nonzero(l.matrix)
    if not (cols > rows).any() or not (cols < rows).any():
        return l.matrix, False
    return form, True


def _spectral_norm(g: np.ndarray, n: int, real: bool) -> float:
    """||G||_2 from its working form: the Hermitian form is rescaled to the
    orthonormal basis, where it is unitarily similar to G."""
    if real:
        scale = _pairs(n)[2]
        g = scale[:, np.newaxis] * g / scale
    return float(np.linalg.norm(g, 2))


# ---------------------------------------------------------------------------
# propagation and infinite-time integrals
# ---------------------------------------------------------------------------

def _finite(a: np.ndarray) -> np.ndarray:
    """``a``, or NumericalError if an entry is not finite."""
    if not np.all(np.isfinite(a)):
        raise NumericalError("propagation produced non-finite entries")
    return a


def _hermitised(stack: np.ndarray) -> np.ndarray:
    return 0.5 * (stack + stack.conj().swapaxes(-1, -2))


def _density_stack(stack: np.ndarray, times=None) -> np.ndarray:
    """Hermitised, read-only copy of a (n, N, N) stack of density matrices,
    checked by :func:`_checked_states`: positivity by a Cholesky
    factorisation, with eigenvalues taken only to name a failure.

    Every DensityMatrix and every propagation path but the real-coordinate one
    of ``propagate`` goes through it; that one builds a stack Hermitian by
    construction (:func:`_coordinate_states`) and checks it directly.
    Non-finite entries raise NumericalError.
    """
    return _checked_states(_hermitised(_finite(stack)), times)


def _coordinate_states(x: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`_real_coordinates` along the last axis of ``x``, as a
    (k, N, N) stack that needs no Hermitising.

    Each (j, k)/(k, j) pair is written from one coordinate, x[jk] + i x[kj]
    above the diagonal and x[jk] - i x[kj] below it, so the stack is Hermitian
    by construction. Its bits are those of Hermitising it, 0.5 * (rho +
    rho^dag), down to the signs of zeros: that ``0.5 * z`` is a complex
    product, which adds 0 * (the other part) to each part, so those terms are
    added here as well. (Coordinates of 2**1023 and more would overflow when
    doubled; no state has them.)
    """
    upper, lower, _ = _pairs(n)
    re, im = x[..., upper], x[..., lower]
    zero_re, zero_im = 0.0 * re, 0.0 * im
    v = x.astype(complex)
    v.real[..., upper] = re - zero_im
    v.real[..., lower] = re + zero_im
    v.imag[..., upper] = im + zero_re
    v.imag[..., lower] = zero_re - im
    return v.reshape(-1, n, n)


def _checked_states(stack: np.ndarray, times=None) -> np.ndarray:
    """``stack``, an exactly Hermitian (n, N, N) stack, marked read-only once
    every slice is a state.

    A trace or smallest eigenvalue outside the DENSITY_* bounds raises
    ValidationError for the first such slice, naming its time (when ``times``
    is given), trace and lambda_min. Positivity is tested by a Cholesky
    factorisation of rho - DENSITY_EIG_FLOOR * I, which succeeds exactly when
    the state is numerically above the floor (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., ch. 10). Eigenvalues only name a
    failure: when a factorisation or a trace bound fails, ``eigvalsh`` of the
    whole stack finds the first bad slice, and a stack in which it finds none
    (a factorisation that failed within rounding of the floor) passes.
    """
    traces = np.trace(stack, axis1=1, axis2=2).real
    if (((traces < DENSITY_TRACE_FLOOR) | (traces > DENSITY_TRACE_CEILING)).any()
            or not _above_floor(stack)):
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


def _above_floor(stack: np.ndarray) -> bool:
    """Whether every slice minus DENSITY_EIG_FLOOR * I has a Cholesky factor,
    factorising STATE_SLICE_BYTES of shifted slices at a time."""
    n_slices, n, _ = stack.shape
    step = max(1, STATE_SLICE_BYTES // (n * n * stack.itemsize))
    shifted = np.empty((min(step, n_slices), n, n), dtype=stack.dtype)
    shift = DENSITY_EIG_FLOOR * np.eye(n)
    try:
        for start in range(0, n_slices, step):
            part = shifted[: min(step, n_slices - start)]
            np.linalg.cholesky(np.subtract(stack[start : start + step], shift, out=part))
    except np.linalg.LinAlgError:
        return False
    return True


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
    """(n_times, len(v0)) array of exp(generator t_k) v0, stepping time to
    time, with ``v0``'s dtype.

    One matrix exponential per step length, within ``STEP_RTOL``: a step
    reuses the matrix of the last one computed when the two lengths agree
    within ``STEP_RTOL`` relative, so a ``linspace`` grid, whose steps differ
    by an ulp, costs one. A zero step (a grid that starts at 0) leaves the
    vector as it is.

    The step lengths are taken once, as Python floats (the same subtraction
    as ``t_k - t_{k-1}``), and each product is written straight into its row
    of the result: no numpy scalar and no temporary vector per step. A real
    generator takes real ``v0`` (the Hermitian basis), a complex one complex
    ``v0``, so every product has the dtype of its row.
    """
    out = np.empty((times.size, v0.size), dtype=v0.dtype)
    v = v0
    step, length = None, 0.0
    for k, dt in enumerate(np.diff(times, prepend=0.0).tolist()):
        if dt == 0.0:
            out[k] = v
            continue
        if abs(dt - length) > STEP_RTOL * length:
            # an overflow leaves a non-finite 1-norm, which expm rejects
            with np.errstate(over="ignore", invalid="ignore"):
                scaled = generator * dt
            step, length = expm(scaled), dt
        v = np.dot(step, v, out=out[k])
    return out


def propagate(l: Superoperator, rho0: DensityMatrix, times: Iterable[float]) -> Propagation:
    """Solve rho(t) = exp(L t) rho0 on the given time grid.

    Steps with dense matrix exponentials (scaling and squaring), one matrix
    exponential per step length, within ``STEP_RTOL``, in the Hermitian basis
    (see the module docstring).
    """
    _check_same_basis(l, rho0, "propagate")
    t = _validated_times(times)
    n = l.dim
    g, real = _working_form(l)
    v0 = vectorize(rho0.entries)
    with one_thread(n * n):
        vectors = _expm_steps(g, _real_coordinates(v0, n) if real else v0, t)
    if not real:
        return Propagation(l.basis, t, _density_stack(vectors.reshape(t.size, n, n), t))
    return Propagation(l.basis, t, _checked_states(_coordinate_states(_finite(vectors), n), t))


def infinite_time_integral(l: Superoperator, rho0: DensityMatrix) -> OperatorMatrix:
    """X = integral of exp(L t) rho0 over t in [0, inf), by solving (-L) X = rho0.

    Requires every eigenvalue of L to sit strictly in the left half plane;
    otherwise the integral diverges (a non-decaying subspace, e.g. an
    unreactive population that never mixes).
    """
    _check_same_basis(l, rho0, "infinite_time_integral")
    n = l.dim
    g, real = _working_form(l)
    v0 = vectorize(rho0.entries)
    with one_thread(n * n):
        norm = _spectral_norm(g, n, real)
        eigs = np.linalg.eigvals(g)
        if norm == 0.0 or eigs.real.max() >= -DECAY_MARGIN * norm:
            raise NonDecayingGeneratorError(
                "generator has non-decaying modes "
                f"(max Re eigenvalue {eigs.real.max():.3e} vs norm {norm:.3e})"
            )
        x = np.linalg.solve(-g, _real_coordinates(v0, n) if real else v0)
    xm = _coordinate_states(x, n)[0] if real else _hermitised(unvectorize(x, n))
    return OperatorMatrix(l.basis, xm)
