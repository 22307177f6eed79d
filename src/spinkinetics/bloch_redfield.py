"""Second-order relaxation supermatrix from couplings and bath spectra.

The generator takes the standard sum_w J(w) A(w) form (Redfield 1957; Breuer &
Petruccione, The Theory of Open Quantum Systems, ch. 3). Each Hermitian
coupling L_i is paired with two filtered operators, summed over the
eigenoperator components of all couplings at the Bohr frequencies of H. In
the eigenbasis of H the sum is a Hadamard (elementwise, o) product,

    Lambda_i = V [sum_{i'} J_{i'i}(W) o (V^dag L_{i'} V)] V^dag
    Theta_i  = V [tanh(beta W / 2) o sum_{i'} J_{i'i}(W) o (V^dag L_{i'} V)] V^dag

with V the eigenvectors of H, W the matrix of its Bohr frequencies
nu_j - nu_j', binned, J_{i'i} the symmetrised bath spectra (zero cross-spectra
are skipped) and tanh taken as sign at beta = inf. R = (R_a + R_b)/2 where
R_a rho = sum_i [[Lambda_i, rho], L_i] and R_b rho = sum_i [L_i, [Theta_i, rho]_+].
All three are one formula over the coupling axis, under the kron convention
of liouville._sandwich,

    R(A, B) = sum_k (B_k x L_k^T + L_k x A_k^T) - I x (sum_k A_k L_k)^T - (sum_k L_k B_k) x I

at (A, B) = (Lambda, Lambda), (Theta, -Theta) and (Lambda + Theta, Lambda - Theta)/2:
one sandwich over a stacked axis of length 2m and two of one-sided sums.
Detailed balance enters only through the tanh factor, so the spectra are even
in frequency. Frequency (Lamb-type) shifts are dropped: only the real
relaxation rates are produced.

``frequency_decompose`` diagonalises and bins H once per Hamiltonian, keyed
by the bytes of its entries so that sweep points at equal H share it, and
returns one coupling in that eigenbasis: V, W and V^dag L V, read as a
sequence of FrequencyComponents built only on access. The V^dag L V of a
coupling is kept likewise, keyed by the bytes of H's entries and the
coupling's; each memo holds the BINS_KEPT keys used last.
COMPONENT_DROP_RTOL drops the Bohr-frequency bins of a coupling whose
Frobenius norm is at most that fraction of ||L||_F, from its components and
from the assembly alike.
"""

from __future__ import annotations

import copy
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import liouville
from .errors import ValidationError
from .liouville import OperatorMatrix, Superoperator, _check_same_basis, _sandwich

#: relative tolerance used to merge nearly degenerate Bohr frequencies
FREQUENCY_BIN_RTOL = 1e-9
#: bins whose Frobenius norm is at most this fraction of the coupling's are dropped
COMPONENT_DROP_RTOL = 1e-12
#: largest Hermiticity defect of a system Hamiltonian, relative to its norm
HAMILTONIAN_HERMITIAN_RTOL = 1e-10


# ---------------------------------------------------------------------------
# spectral densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lorentzian:
    """J(w) = 2 * amplitude * tau_c / (1 + (w tau_c)^2).

    ``amplitude`` is the mean-square coupling (rad^2/s^2), ``tau_c`` the
    correlation time (s); J carries units of s^-1.
    """

    amplitude: float
    tau_c: float

    def __post_init__(self):
        if not (self.amplitude >= 0 and math.isfinite(self.amplitude)):
            raise ValidationError("Lorentzian amplitude must be finite and nonnegative")
        if not (self.tau_c > 0 and math.isfinite(self.tau_c)):
            raise ValidationError("Lorentzian tau_c must be positive")

    def value(self, omega):
        w = np.asarray(omega, dtype=float)
        return 2.0 * self.amplitude * self.tau_c / (1.0 + (w * self.tau_c) ** 2)


@dataclass(frozen=True)
class WhiteNoise:
    """Frequency-independent spectrum J(w) = level (s^-1)."""

    level: float

    def __post_init__(self):
        if not (self.level >= 0 and math.isfinite(self.level)):
            raise ValidationError("white-noise level must be finite and nonnegative")

    def value(self, omega):
        return np.full(np.shape(omega), float(self.level))[()]  # a scalar from 0-d


@dataclass(frozen=True)
class Tabulated:
    """Even spectrum interpolated linearly from samples on omega >= 0.

    Evaluation uses |omega|, which enforces J(w) = J(-w) by construction.
    Outside the tabulated range the end values are held constant. The samples
    are kept as tuples of floats, so spectra compare and hash by their values.
    """

    omega: Sequence[float]
    values: Sequence[float]

    def __post_init__(self):
        w = np.asarray(self.omega, dtype=float)
        j = np.asarray(self.values, dtype=float)
        if w.ndim != 1 or w.shape != j.shape or w.size < 2:
            raise ValidationError("tabulated spectrum needs matching 1-d grids")
        if w[0] < 0:
            raise ValidationError("tabulated grid must cover omega >= 0 only")
        if np.any(np.diff(w) <= 0):
            raise ValidationError("tabulated grid must be strictly increasing")
        if np.any(j < 0) or not np.all(np.isfinite(j)):
            raise ValidationError("tabulated spectrum values must be finite and nonnegative")
        object.__setattr__(self, "omega", tuple(w.tolist()))
        object.__setattr__(self, "values", tuple(j.tolist()))

    def value(self, omega):
        return np.interp(np.abs(omega), self.omega, self.values)


SpectralDensity = Lorentzian | WhiteNoise | Tabulated

ZERO_DENSITY = WhiteNoise(0.0)


def thermal_factor(beta: float, omega):
    """tanh(beta * omega / 2) with the beta = +inf limit taken as sign(omega)."""
    if beta < 0:
        raise ValidationError("inverse temperature must be nonnegative")
    w = np.asarray(omega, dtype=float)
    return np.sign(w) if math.isinf(beta) else np.tanh(0.5 * beta * w)


# ---------------------------------------------------------------------------
# couplings and bath specification
# ---------------------------------------------------------------------------

class CouplingOperator:
    """Hermitian system operator coupled to one bath channel."""

    def __init__(self, label: str, matrix: OperatorMatrix, spectral_index: int):
        if not matrix.is_hermitian():
            raise ValidationError(f"coupling operator {label!r} must be Hermitian")
        if spectral_index < 0:
            raise ValidationError("spectral_index must be nonnegative")
        self.label = str(label)
        self.matrix = matrix
        self.spectral_index = int(spectral_index)

    def __repr__(self):
        return f"CouplingOperator({self.label!r}, spectral_index={self.spectral_index})"


class BathSpec:
    """Couplings plus the (symmetric, real) matrix of their spectral densities.

    ``densities[i][j]`` is the cross-spectrum between channels i and j; it must
    be a full square grid covering every spectral index used by the couplings,
    and symmetric. All channels share one inverse temperature ``beta`` (s;
    ``math.inf`` selects the strictly irreversible limit).
    """

    def __init__(self, couplings, densities, beta: float):
        couplings = tuple(couplings)
        if not couplings:
            raise ValidationError("bath needs at least one coupling operator")
        for c in couplings:
            if not isinstance(c, CouplingOperator):
                raise ValidationError("couplings must be CouplingOperator instances")
            _check_same_basis(couplings[0].matrix, c.matrix, "bath couplings")
        grid = [tuple(row) for row in densities]
        m = len(grid)
        if any(len(row) != m for row in grid):
            raise ValidationError("density grid must be square")
        for row in grid:
            for d in row:
                if not isinstance(d, SpectralDensity):
                    raise ValidationError("density grid entries must be spectral densities")
        for i in range(m):
            for j in range(i):
                if grid[i][j] != grid[j][i]:
                    raise ValidationError("density grid must be symmetric")
        top = max(c.spectral_index for c in couplings)
        if top >= m:
            raise ValidationError(
                f"missing spectral density for channel pair: index {top} "
                f"outside {m}x{m} grid"
            )
        if beta < 0:
            raise ValidationError("inverse temperature must be nonnegative")
        self.couplings = couplings
        self.densities = tuple(grid)
        self.beta = float(beta)
        self.basis = couplings[0].matrix.basis

    @classmethod
    def uncorrelated(cls, couplings, densities, beta: float) -> "BathSpec":
        """Diagonal bath: coupling i gets ``densities[i]``, cross-spectra zero."""
        couplings = tuple(couplings)
        densities = tuple(densities)
        if len(couplings) != len(densities):
            raise ValidationError("one spectral density per coupling required")
        relabeled = [copy.copy(c) for c in couplings]  # the caller's keep their indices
        for i, c in enumerate(relabeled):
            c.spectral_index = i
        m = len(densities)
        grid = [
            [densities[i] if i == j else ZERO_DENSITY for j in range(m)]
            for i in range(m)
        ]
        return cls(relabeled, grid, beta)

    def density(self, i: int, j: int) -> SpectralDensity:
        """Cross-spectrum between couplings i and j (by coupling position)."""
        a = self.couplings[i].spectral_index
        b = self.couplings[j].spectral_index
        return self.densities[a][b]


# ---------------------------------------------------------------------------
# eigenoperator decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrequencyComponent:
    """Slice of a coupling operator attached to one Bohr frequency (rad/s)."""

    omega: float
    matrix: OperatorMatrix


def _cluster_frequencies(freqs: np.ndarray, threshold: float):
    """Cluster label per frequency and a representative per cluster.

    Sorted neighbours closer than ``threshold`` chain into one cluster. Bohr
    frequencies are exactly antisymmetric (fl(a - b) = -fl(b - a)), so clusters
    mirror about the middle one, which holds the zeros; half the difference of
    mirrored means puts each pair at exactly opposite frequencies, the middle at 0.
    """
    order = np.argsort(freqs)
    sorted_f = freqs[order]
    breaks = np.diff(sorted_f) > threshold
    labels = np.empty(freqs.size, dtype=int)
    labels[order] = np.concatenate(([0], np.cumsum(breaks)))
    reps = np.array(
        [float(np.mean(c)) for c in np.split(sorted_f, np.flatnonzero(breaks) + 1)]
    )
    return 0.5 * (reps - reps[::-1]), labels


#: Hamiltonians, and (Hamiltonian, coupling) pairs, whose decomposition is kept
BINS_KEPT = 64


@functools.lru_cache(maxsize=BINS_KEPT)
def _bohr_bins(h_entries: bytes) -> tuple:
    """Check, diagonalise and bin H, given by the bytes of its entries, once per
    Hamiltonian: equal entries share it.

    Returns the eigenvectors V of H (columns), the binned Bohr frequency
    Omega-bar[j, j'] of nu_j - nu_j', the bin label of each element and the
    frequency of each bin, in ascending order; every array is read-only.
    """
    h = np.frombuffer(h_entries, dtype=complex)
    h = h.reshape(2 * (math.isqrt(h.size),))
    if liouville.hermitian_defect(h) > HAMILTONIAN_HERMITIAN_RTOL:
        raise ValidationError("system Hamiltonian must be Hermitian")
    evals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    freq_matrix = evals[:, None] - evals[None, :]
    scale = float(np.abs(evals).max())
    threshold = FREQUENCY_BIN_RTOL * (scale if scale > 0 else 1.0)
    reps, labels = _cluster_frequencies(freq_matrix.reshape(-1), threshold)
    labels = labels.reshape(freq_matrix.shape)
    bins = (vecs, reps[labels], labels, reps)
    for a in bins:
        a.setflags(write=False)
    return bins


@functools.lru_cache(maxsize=BINS_KEPT)
def _eigenbasis_coupling(h_entries: bytes, lam_entries: bytes) -> tuple:
    """H's bins, a coupling L in the eigenbasis of H (V^dag L V less its dropped
    bins) and the labels of its kept bins; every array is read-only."""
    bins = vecs, _, labels, reps = _bohr_bins(h_entries)
    lam = np.frombuffer(lam_entries, dtype=complex).reshape(vecs.shape)
    lam_eig = vecs.conj().T @ lam @ vecs
    norms = np.sqrt(np.bincount(labels.reshape(-1), np.abs(lam_eig.reshape(-1)) ** 2,
                                minlength=reps.size))
    kept = norms > COMPONENT_DROP_RTOL * np.linalg.norm(lam)
    lam_eig[~kept[labels]] = 0.0
    kept = np.flatnonzero(kept)
    for a in (lam_eig, kept):
        a.setflags(write=False)
    return bins, lam_eig, kept


class Eigenoperators(Sequence):
    """A coupling L in the eigenbasis of H, read as its eigenoperator components.

    ``vecs`` holds the eigenvectors V of H, ``omega`` the binned Bohr frequency
    of each eigenbasis element and ``entries`` the coupling V^dag L V, less the
    bins that were dropped. Item k is the FrequencyComponent of the k-th kept
    bin in ascending frequency, built only when it is read; ``len()`` counts
    the kept bins without building them.
    """

    def __init__(self, basis, bins: tuple, entries: np.ndarray, kept: np.ndarray):
        self.basis = basis
        self.vecs, self.omega, self._labels, self._reps = bins
        self.entries = entries
        self._kept = kept

    def __len__(self) -> int:
        return self._kept.size

    def __getitem__(self, k: int) -> FrequencyComponent:
        b = self._kept[k]
        block = np.where(self._labels == b, self.entries, 0.0)
        comp = self.vecs @ block @ self.vecs.conj().T
        return FrequencyComponent(float(self._reps[b]), OperatorMatrix(self.basis, comp))


def frequency_decompose(
    h: OperatorMatrix,
    coupling: CouplingOperator | OperatorMatrix,
) -> Eigenoperators:
    """Split a coupling operator into eigenoperator components of H.

    Each component collects the matrix elements <j|L|j'> whose Bohr frequency
    nu_j - nu_j' falls into one bin (bins chain together frequencies closer
    than FREQUENCY_BIN_RTOL * max|nu|). Every element lands in exactly one
    bin, so the components sum back to the full operator; the adjoint of the
    component at +w is the component at -w. A bin whose Frobenius norm is at
    most COMPONENT_DROP_RTOL * ||L||_F is dropped: V is unitary, so the test
    reads the same on the component V B V^dag as on its eigenbasis block B.
    """
    lam = coupling.matrix if isinstance(coupling, CouplingOperator) else coupling
    _check_same_basis(h, lam, "frequency_decompose")
    return Eigenoperators(h.basis, *_eigenbasis_coupling(h.entries.tobytes(),
                                                         lam.entries.tobytes()))


# ---------------------------------------------------------------------------
# relaxation supermatrix assembly
# ---------------------------------------------------------------------------

def _filtered_operators(bath: BathSpec, h: OperatorMatrix):
    """(L, Lambda, Theta) as (m, N, N) stacks over the m couplings (see the module docstring)."""
    parts = [frequency_decompose(h, c) for c in bath.couplings]
    vecs, omega = parts[0].vecs, parts[0].omega
    filtered = np.zeros((len(parts), h.dim, h.dim), dtype=complex)
    for i, f in enumerate(filtered):
        for ip, part in enumerate(parts):
            dens = bath.density(ip, i)
            if dens != ZERO_DENSITY:
                f += dens.value(omega) * part.entries
    back = vecs.conj().T
    return (np.array([c.matrix.entries for c in bath.couplings]), vecs @ filtered @ back,
            vecs @ (thermal_factor(bath.beta, omega) * filtered) @ back)


def _relaxation(h: OperatorMatrix, l: np.ndarray, a: np.ndarray, b: np.ndarray) -> Superoperator:
    """R(A, B) of the module docstring from (m, N, N) stacks of L, A and B."""
    eye = np.eye(h.dim)
    r = (_sandwich(np.concatenate((b, l)), np.concatenate((l, a)))
         - _sandwich(eye, (a @ l).sum(axis=0)) - _sandwich((l @ b).sum(axis=0), eye))
    return Superoperator(h.basis, r)


def double_commutator_part(bath: BathSpec, h: OperatorMatrix) -> Superoperator:
    """The temperature-independent half: sum_i [[Lambda_i, rho], L_i]."""
    l, lam, _ = _filtered_operators(bath, h)
    return _relaxation(h, l, lam, lam)


def thermal_part(bath: BathSpec, h: OperatorMatrix) -> Superoperator:
    """The detailed-balance half: sum_i [L_i, [Theta_i, rho]_+]."""
    l, _, th = _filtered_operators(bath, h)
    return _relaxation(h, l, th, -th)


def relaxation_supermatrix(bath: BathSpec, h: OperatorMatrix) -> Superoperator:
    """Full relaxation generator: half the sum of the two parts."""
    l, lam, th = _filtered_operators(bath, h)
    return _relaxation(h, l, 0.5 * (lam + th), 0.5 * (lam - th))


# ---------------------------------------------------------------------------
# perturbative-validity diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidityReport:
    """Dimensionless ||L|| * tau_c with pass/strong-pass flags."""

    ratio: float
    passes: bool
    strong_pass: bool

    PASS_THRESHOLD = 0.1
    STRONG_THRESHOLD = 0.01


def validity_check(superop: Superoperator, tau_c: float) -> ValidityReport:
    """Check that relaxation is slow on the bath correlation time scale.

    The second-order treatment behind all rates here requires outcomes per
    correlation time to be small: ratio <= 0.1 passes, <= 0.01 passes with
    margin.
    """
    if not (tau_c > 0 and math.isfinite(tau_c)):
        raise ValidationError("tau_c must be positive and finite")
    ratio = superop.norm() * tau_c
    headroom = 1.0 + 1e-9  # keep exact-boundary cases from flipping on rounding
    return ValidityReport(
        ratio=ratio,
        passes=ratio <= ValidityReport.PASS_THRESHOLD * headroom,
        strong_pass=ratio <= ValidityReport.STRONG_THRESHOLD * headroom,
    )
