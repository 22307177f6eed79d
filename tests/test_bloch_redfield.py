import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from _util import (
    hermiticity_defect_sample,
    random_density,
    random_hermitian,
    reference_filtered_operators,
    reference_frequency_decompose,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from spinkinetics import (
    BasisLabel,
    BathSpec,
    CouplingOperator,
    DimensionMismatchError,
    Lorentzian,
    OperatorMatrix,
    Tabulated,
    ValidationError,
    WhiteNoise,
    double_commutator_part,
    frequency_decompose,
    relaxation_supermatrix,
    thermal_factor,
    thermal_part,
    validity_check,
)
from spinkinetics import bloch_redfield
from spinkinetics.bloch_redfield import (
    FREQUENCY_BIN_RTOL,
    _cluster_frequencies,
    _filtered_operators,
)
from spinkinetics.three_state import THREE_STATE_BASIS, ThreeStateParams, build_bath

B4 = BasisLabel(("a", "b", "c", "d"))

#: writes the bytes of the relaxation supermatrix of a seeded N=16 system with
#: three couplings to stdout
_ASSEMBLE_N16 = """
import sys
import numpy as np
from spinkinetics import (BasisLabel, BathSpec, CouplingOperator, Lorentzian, OperatorMatrix,
                          relaxation_supermatrix)
rng = np.random.default_rng(16)
basis = BasisLabel(tuple(f"s{k}" for k in range(16)))
def hermitian(scale):
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    return OperatorMatrix(basis, scale * (a + a.conj().T))
h = hermitian(1e9)
couplings = [CouplingOperator(f"c{k}", hermitian(1.0), k) for k in range(3)]
densities = [Lorentzian(1e17 * (k + 1), 1e-10) for k in range(3)]
bath = BathSpec.uncorrelated(couplings, densities, beta=1e-9)
sys.stdout.buffer.write(relaxation_supermatrix(bath, h).matrix.tobytes())
"""


class TestSpectralDensities:
    def test_lorentzian_even_and_positive(self):
        j = Lorentzian(amplitude=2.0, tau_c=0.5)
        assert j.value(0.0) == pytest.approx(2 * 2.0 * 0.5)
        assert j.value(3.0) == j.value(-3.0)
        assert j.value(2.0) == pytest.approx(2 * 2.0 * 0.5 / (1 + 1.0**2))

    def test_white_noise_flat(self):
        j = WhiteNoise(0.7)
        assert j.value(0.0) == j.value(1e9) == 0.7

    def test_tabulated_even_by_construction(self):
        j = Tabulated([0.0, 1.0, 2.0], [3.0, 2.0, 1.0])
        assert j.value(1.5) == j.value(-1.5) == pytest.approx(1.5)

    def test_tabulated_validation(self):
        with pytest.raises(ValidationError):
            Tabulated([1.0, 0.5], [1.0, 1.0])
        with pytest.raises(ValidationError):
            Tabulated([-1.0, 0.5], [1.0, 1.0])
        with pytest.raises(ValidationError):
            Tabulated([0.0, 1.0], [1.0, -1.0])

    @pytest.mark.parametrize("spectrum", [
        Lorentzian(amplitude=2.0, tau_c=0.5), WhiteNoise(0.7),
        Tabulated([0.0, 1.0, 2.0], [3.0, 2.0, 1.0]),
    ], ids=["lorentzian", "white", "tabulated"])
    @pytest.mark.parametrize("omega", [0.0, -0.0, 1.5, -3.0, 7, 1e9])
    def test_a_scalar_call_is_the_one_element_array_call(self, spectrum, omega):
        got = spectrum.value(omega)
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == spectrum.value(np.array([omega]))[0].tobytes()

    @pytest.mark.parametrize("beta", [0.0, 2.0, math.inf])
    @pytest.mark.parametrize("omega", [0.0, -0.0, 1.5, -3.0, 7])
    def test_a_scalar_thermal_factor_is_the_one_element_array_call(self, beta, omega):
        got = thermal_factor(beta, omega)
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == thermal_factor(beta, np.array([omega]))[0].tobytes()

    def test_tabulated_spectra_compare_by_their_samples(self):
        grid, values = [0.0, 1.0, 2.0], [3.0, 2.0, 1.0]
        from_lists = Tabulated(grid, values)
        from_arrays = Tabulated(np.array(grid), np.array(values))
        assert from_lists == from_arrays and hash(from_lists) == hash(from_arrays)
        assert from_lists != Tabulated(grid, [3.0, 2.0, 1.5])
        assert from_lists != Tabulated([0.0, 1.0, 2.5], values)

    def test_thermal_factor_limits(self):
        assert thermal_factor(0.0, 5.0) == 0.0
        assert thermal_factor(math.inf, 5.0) == 1.0
        assert thermal_factor(math.inf, -5.0) == -1.0
        assert thermal_factor(math.inf, 0.0) == 0.0
        assert thermal_factor(2.0, 3.0) == pytest.approx(math.tanh(3.0))


#: three states, but not the three-state model's
_OTHER_BASIS = BasisLabel(("p", "q", "r"))


def _transverse_params(beta=1.0e-9):
    return ThreeStateParams(
        omega0=0.7e9, omega_s=1.0e9, beta=beta, transverse=Lorentzian(2e17, 2e-10)
    )


class TestFrequencyDecompose:
    def test_pair_coupler_splits_into_ladder_components(self):
        h, bath = build_bath(_transverse_params())
        comps = frequency_decompose(h, bath.couplings[0])  # x coupler
        assert len(comps) == 2
        by_freq = {round(c.omega / 1e9, 6): c.matrix.entries for c in comps}
        up = np.zeros((3, 3), dtype=complex)
        up[1, 2] = 0.5  # half-weighted raising part of the pair coupler
        assert np.abs(by_freq[1.0] - up).max() < 1e-12
        assert np.abs(by_freq[-1.0] - up.conj().T).max() < 1e-12

    def test_diagonal_coupler_single_zero_component(self):
        h, _ = build_bath(_transverse_params())
        lam = OperatorMatrix(THREE_STATE_BASIS, np.diag([0.5, -0.5, 0.0]))
        comps = frequency_decompose(h, lam)
        assert len(comps) == 1
        assert comps[0].omega == 0.0
        assert np.abs(comps[0].matrix.entries - lam.entries).max() < 1e-12

    def test_degenerate_hamiltonian_merges_everything(self):
        rng = np.random.default_rng(21)
        h = OperatorMatrix(B4, np.eye(4))
        lam = OperatorMatrix(B4, random_hermitian(4, rng))
        comps = frequency_decompose(h, lam)
        assert len(comps) == 1 and comps[0].omega == 0.0

    def test_random_reconstruction_and_adjoint_pairing(self):
        rng = np.random.default_rng(22)
        for trial in range(4):
            h = OperatorMatrix(B4, random_hermitian(4, rng, scale=3.0))
            lam = OperatorMatrix(B4, random_hermitian(4, rng))
            comps = frequency_decompose(h, lam)
            total = sum(c.matrix.entries for c in comps)
            assert np.abs(total - lam.entries).max() < 1e-11
            freqs = np.array([c.omega for c in comps])
            for c in comps:
                partner = comps[int(np.argmin(np.abs(freqs + c.omega)))]
                assert partner.omega == -c.omega
                assert np.abs(c.matrix.entries.conj().T - partner.matrix.entries).max() < 1e-11

    def test_chained_near_degenerate_cluster_keeps_every_element(self):
        # sorted neighbours 0.6e-9 apart chain into clusters 2.4e-9 wide, wider
        # than twice the 1e-9 merge threshold
        rng = np.random.default_rng(25)
        h = OperatorMatrix(B4, np.diag([0.0, 0.6e-9, 1.2e-9, 1.0]))
        lam = OperatorMatrix(B4, random_hermitian(4, rng))
        comps = frequency_decompose(h, lam)
        total = sum(c.matrix.entries for c in comps)
        assert np.abs(total - lam.entries).max() < 1e-12
        assert sorted(c.omega for c in comps) == pytest.approx([-1.0, 0.0, 1.0], abs=1e-8)

    def test_a_coupling_on_another_basis_rejected(self):
        h, _ = build_bath(_transverse_params())
        with pytest.raises(DimensionMismatchError):
            frequency_decompose(h, OperatorMatrix(_OTHER_BASIS, np.eye(3)))

    def test_non_hermitian_hamiltonian_rejected(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValidationError):
            frequency_decompose(
                OperatorMatrix(THREE_STATE_BASIS, m),
                OperatorMatrix(THREE_STATE_BASIS, np.eye(3)),
            )


class TestBathSpec:
    def test_missing_density_for_pair(self):
        h, bath = build_bath(_transverse_params())
        with pytest.raises(ValidationError):
            BathSpec(bath.couplings, [[Lorentzian(1.0, 1.0)]], beta=0.0)

    def test_asymmetric_grid_rejected(self):
        _, bath = build_bath(_transverse_params())
        grid = [
            [Lorentzian(1.0, 1.0), WhiteNoise(1.0)],
            [WhiteNoise(2.0), Lorentzian(1.0, 1.0)],
        ]
        with pytest.raises(ValidationError):
            BathSpec(bath.couplings, grid, beta=0.0)

    def test_couplings_on_two_bases_rejected(self):
        couplings = [CouplingOperator(name, OperatorMatrix(basis, np.eye(3)), 0)
                     for name, basis in (("a", THREE_STATE_BASIS), ("b", _OTHER_BASIS))]
        with pytest.raises(DimensionMismatchError):
            BathSpec(couplings, [[Lorentzian(1.0, 1.0)]], beta=0.0)

    def test_non_hermitian_coupling_rejected(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValidationError):
            CouplingOperator("bad", OperatorMatrix(THREE_STATE_BASIS, m), 0)


def _coherence_element(superop, i, j):
    rho = np.zeros((3, 3), dtype=complex)
    rho[i, j] = 1.0
    return superop.apply(rho)[i, j]


class TestAssembly:
    def test_part_one_coherence_element(self):
        p = _transverse_params(beta=2.0e-9)
        h, bath = build_bath(p)
        j_s = p.transverse.value(p.omega_s)
        r1 = double_commutator_part(bath, h)
        assert _coherence_element(r1, 0, 1) == pytest.approx(-0.5 * j_s, rel=1e-12)

    def test_part_two_coherence_element(self):
        p = _transverse_params(beta=2.0e-9)
        h, bath = build_bath(p)
        j_s = p.transverse.value(p.omega_s)
        factor = math.tanh(0.5 * p.beta * p.omega_s)
        r2 = thermal_part(bath, h)
        assert _coherence_element(r2, 0, 1) == pytest.approx(-0.5 * j_s * factor, rel=1e-12)

    def test_zero_density_gives_zero_superoperator(self):
        p = ThreeStateParams(
            omega0=0.0, omega_s=1e9, beta=1e-9, transverse=WhiteNoise(0.0)
        )
        h, bath = build_bath(p)
        assert relaxation_supermatrix(bath, h).norm() == 0.0

    def test_a_hamiltonian_on_another_basis_rejected(self):
        h, bath = build_bath(_transverse_params())
        with pytest.raises(DimensionMismatchError):
            relaxation_supermatrix(bath, OperatorMatrix(_OTHER_BASIS, h.entries))

    def test_beta_zero_kills_thermal_part(self):
        p = _transverse_params(beta=0.0)
        h, bath = build_bath(p)
        assert thermal_part(bath, h).norm() == 0.0

    def test_both_parts_trace_free(self):
        rng = np.random.default_rng(23)
        p = _transverse_params()
        h, bath = build_bath(p)
        for part in (double_commutator_part(bath, h), thermal_part(bath, h)):
            for _ in range(3):
                rho = random_density(3, rng)
                assert abs(np.trace(part.apply(rho))) < 1e-12 * part.norm()

    def test_relaxation_preserves_hermiticity(self):
        p = _transverse_params()
        h, bath = build_bath(p)
        r = relaxation_supermatrix(bath, h)
        assert hermiticity_defect_sample(r) < 1e-12 * r.norm()

    def test_detailed_balance(self):
        for beta_omega in (0.1, 1.0, 10.0):
            p = _transverse_params(beta=beta_omega / 1.0e9)
            h, bath = build_bath(p)
            r = relaxation_supermatrix(bath, h).matrix
            w11 = -r[4, 4].real
            w22 = -r[8, 8].real
            assert w11 / w22 == pytest.approx(math.exp(beta_omega), rel=1e-9)

    def test_bloch_block_equivalence(self):
        """The (1,2) block must be plain population exchange plus dephasing."""
        p = _transverse_params(beta=1.5e-9)
        h, bath = build_bath(p)
        r = relaxation_supermatrix(bath, h).matrix
        j_s = p.transverse.value(p.omega_s)
        x = p.beta * p.omega_s
        w11 = j_s / (1 + math.exp(-x))
        w22 = w11 * math.exp(-x)
        idx = lambda i, j: 3 * i + j
        assert -r[idx(1, 1), idx(1, 1)].real == pytest.approx(w11, rel=1e-12)
        assert r[idx(1, 1), idx(2, 2)].real == pytest.approx(w22, rel=1e-12)
        assert r[idx(2, 2), idx(1, 1)].real == pytest.approx(w11, rel=1e-12)
        assert -r[idx(2, 2), idx(2, 2)].real == pytest.approx(w22, rel=1e-12)
        assert -r[idx(1, 2), idx(1, 2)].real == pytest.approx(0.5 * (w11 + w22), rel=1e-12)
        assert -r[idx(2, 1), idx(2, 1)].real == pytest.approx(0.5 * (w11 + w22), rel=1e-12)

    def test_population_block_feeds_conserve_trace(self):
        rng = np.random.default_rng(24)
        p = _transverse_params()
        h, bath = build_bath(p)
        r = relaxation_supermatrix(bath, h)
        rho = random_density(3, rng)
        assert abs(np.trace(r.apply(rho))) < 1e-12 * r.norm()


def test_assembly_bits_do_not_follow_the_blas_thread_count():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for count in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": count,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", _ASSEMBLE_N16], env=env,
                              capture_output=True, timeout=120, check=True)
        outputs.append(done.stdout)
    assert len(outputs[0]) == 256 * 256 * 16
    assert outputs[0] == outputs[1]


class TestValidityCheck:
    def test_thresholds(self):
        basis = THREE_STATE_BASIS
        from spinkinetics import Superoperator

        zero = Superoperator(basis, np.zeros((9, 9)))
        report = validity_check(zero, 1e-13)
        assert report.ratio == 0.0 and report.passes and report.strong_pass

        half = Superoperator(basis, 0.5e13 * np.eye(9))
        report = validity_check(half, 1e-13)
        assert report.ratio == pytest.approx(0.5)
        assert not report.passes and not report.strong_pass

    def test_reaction_scale_rates_pass_strongly(self):
        from spinkinetics import ReactionModel, reaction_supermatrix

        # rates at the typical 1e11 /s ceiling whose supermatrix norm is 1e11
        k = reaction_supermatrix(ReactionModel.generalized(5e10, 5e10, 1e11))
        report = validity_check(k, 1e-13)
        assert report.ratio <= 1e-2 * (1 + 1e-9) and report.strong_pass

    def test_bad_tau_rejected(self):
        from spinkinetics import Superoperator

        with pytest.raises(ValidationError):
            validity_check(Superoperator(THREE_STATE_BASIS, np.zeros((9, 9))), 0.0)


# ---------------------------------------------------------------------------
# property tests against the per-component reference assembly
# ---------------------------------------------------------------------------

def _ref_double_commutator(comp, lam):
    """Supermatrix of rho -> [[C, rho], L]."""
    eye = np.eye(lam.shape[0])
    return (
        np.kron(comp, lam.T)
        + np.kron(lam, comp.T)
        - np.kron(eye, (comp @ lam).T)
        - np.kron(lam @ comp, eye)
    )


def _ref_commutator_anticommutator(comp, lam):
    """Supermatrix of rho -> [L, [C, rho]_+]."""
    eye = np.eye(lam.shape[0])
    return (
        np.kron(lam @ comp, eye)
        + np.kron(lam, comp.T)
        - np.kron(comp, lam.T)
        - np.kron(eye, (comp @ lam).T)
    )


def _reference_parts(bath, h):
    """Both parts summed one eigenoperator component at a time."""
    d2 = h.dim * h.dim
    part_a = np.zeros((d2, d2), dtype=complex)
    part_b = np.zeros((d2, d2), dtype=complex)
    comps = [frequency_decompose(h, c) for c in bath.couplings]
    for ip in range(len(bath.couplings)):
        for i, coupling in enumerate(bath.couplings):
            dens = bath.density(ip, i)
            lam = coupling.matrix.entries
            for comp in comps[ip]:
                j = float(dens.value(comp.omega))
                if j == 0.0:
                    continue
                part_a += j * _ref_double_commutator(comp.matrix.entries, lam)
                th = thermal_factor(bath.beta, comp.omega)
                if th != 0.0:
                    part_b += (j * th) * _ref_commutator_anticommutator(
                        comp.matrix.entries, lam
                    )
    return part_a, part_b


def _random_unitary(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


#: rad/s scale of the drawn spectra; the merge threshold is FREQUENCY_BIN_RTOL of it
_OMEGA = 1e9


@st.composite
def _levels(draw, n):
    """Random levels, or levels chained a few merge thresholds apart."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if not draw(st.booleans()):
        return _OMEGA * rng.normal(size=n)
    n_clusters = draw(st.integers(1, n))
    centres = rng.normal(size=n_clusters)
    offsets = draw(st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n))
    unit = FREQUENCY_BIN_RTOL * np.abs(centres).max()
    return _OMEGA * (centres[np.arange(n) % n_clusters] + unit * np.array(offsets))


def _density(draw, rng):
    kind = draw(st.sampled_from(["lorentzian", "white", "tabulated"]))
    amplitude = 1e17 * (0.1 + rng.random())
    if kind == "lorentzian":
        return Lorentzian(amplitude, (0.1 + 5 * rng.random()) / _OMEGA)
    if kind == "white":
        return WhiteNoise(amplitude / _OMEGA)
    grid = np.linspace(0.0, 4 * _OMEGA, 9)
    return Tabulated(grid, amplitude / _OMEGA * rng.random(grid.size))


@st.composite
def baths(draw):
    """(H, bath) with random or near-degenerate H and a diagonal or full grid."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = BasisLabel(tuple(f"s{k}" for k in range(n)))
    # unrotated, repeated levels stay exactly degenerate
    u = _random_unitary(n, rng) if draw(st.booleans()) else np.eye(n)
    h = OperatorMatrix(basis, u @ np.diag(draw(_levels(n))) @ u.conj().T)
    couplings = [
        CouplingOperator(f"c{k}", OperatorMatrix(basis, random_hermitian(n, rng)), k)
        for k in range(m)
    ]
    beta = draw(st.sampled_from([0.0, math.inf, 1.0 / _OMEGA, 0.1 / _OMEGA, 5.0 / _OMEGA]))
    if draw(st.booleans()):
        return h, BathSpec.uncorrelated(couplings, [_density(draw, rng) for _ in range(m)], beta)
    grid = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            grid[a][b] = grid[b][a] = _density(draw, rng)
    return h, BathSpec(couplings, grid, beta)


_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _close(new, ref):
    return np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()


def _adjoint_permutation(n):
    """P with vec(rho^T) = P vec(rho), row-major."""
    idx = np.arange(n * n).reshape(n, n)
    return np.eye(n * n)[idx.T.reshape(-1)]


class TestAssemblyProperties:
    @_PROPERTY
    @given(baths())
    def test_matches_per_component_reference(self, hb):
        h, bath = hb
        part_a, part_b = _reference_parts(bath, h)
        assert _close(double_commutator_part(bath, h).matrix, part_a)
        assert _close(thermal_part(bath, h).matrix, part_b)
        assert _close(relaxation_supermatrix(bath, h).matrix, 0.5 * (part_a + part_b))

    @_PROPERTY
    @given(baths())
    def test_trace_flux_and_hermiticity_preservation(self, hb):
        h, bath = hb
        n = h.dim
        p = _adjoint_permutation(n)
        for part in (relaxation_supermatrix(bath, h), double_commutator_part(bath, h),
                     thermal_part(bath, h)):
            r = part.matrix
            tol = 1e-12 * np.abs(r).max()
            diagonal = [k * n + k for k in range(n)]
            assert np.abs(r[diagonal, :].sum(axis=0)).max() <= tol
            # R(rho^dag) = R(rho)^dag for every rho
            assert np.abs(r - p @ r.conj() @ p).max() <= tol

    @_PROPERTY
    @given(baths())
    def test_components_pair_at_opposite_frequencies(self, hb):
        h, bath = hb
        for coupling in bath.couplings:
            lam = coupling.matrix.entries
            comps = frequency_decompose(h, coupling)
            total = sum(c.matrix.entries for c in comps)
            assert np.abs(total - lam).max() <= 1e-10 * np.abs(lam).max()
            by_omega = {c.omega: c.matrix.entries for c in comps}
            assert len(by_omega) == len(comps)
            for omega, entries in by_omega.items():
                assert np.abs(by_omega[-omega] - entries.conj().T).max() <= 1e-12 * np.abs(
                    lam
                ).max()

    @_PROPERTY
    @given(baths())
    def test_population_rates_obey_detailed_balance(self, hb):
        # W(j<-k) = exp(-beta (nu_j - nu_k)) W(k<-j) for nu_j > nu_k, read at
        # the binned Bohr frequency that the thermal factor sees. The tolerance
        # scales with max|R|, not with the uphill rate J (1 - tanh) / 2, which
        # loses digits to cancellation at large beta (nu_j - nu_k).
        h, bath = hb
        n = h.dim
        parts = frequency_decompose(h, bath.couplings[0])
        u = np.kron(parts.vecs, parts.vecs.conj())  # vec(rho) = u vec(V^dag rho V)
        r = u.conj().T @ relaxation_supermatrix(bath, h).matrix @ u
        tol = 1e-12 * np.abs(r).max()
        for j, k in zip(*np.nonzero(parts.omega > 0)):
            uphill, downhill = r[j * n + j, k * n + k], r[k * n + k, j * n + j]
            assert abs(uphill - math.exp(-bath.beta * parts.omega[j, k]) * downhill) <= tol
            if math.isinf(bath.beta):
                assert abs(uphill) <= tol

    @pytest.mark.parametrize("beta", [0.0, 1e-9, math.inf])
    def test_three_state_bath_matches_reference_exactly(self, beta):
        h, bath = build_bath(_transverse_params(beta=beta))
        part_a, part_b = _reference_parts(bath, h)
        assert np.array_equal(relaxation_supermatrix(bath, h).matrix, 0.5 * (part_a + part_b))


def _fixtures():
    """(H, coupling) pairs of the three-state model and of 4-level spectra."""
    rng = np.random.default_rng(22)
    for p in (_transverse_params(), _transverse_params(beta=math.inf),
              ThreeStateParams(omega0=0.0, omega_s=1e9, beta=1e-9, transverse=WhiteNoise(1e8),
                               splitting=Lorentzian(5e16, 1e-10), isotropic=True)):
        h, bath = build_bath(p)
        yield from ((h, c.matrix) for c in bath.couplings)
    yield OperatorMatrix(B4, np.eye(4)), OperatorMatrix(B4, random_hermitian(4, rng))
    yield (OperatorMatrix(B4, np.diag([0.0, 0.6e-9, 1.2e-9, 1.0])),
           OperatorMatrix(B4, random_hermitian(4, rng)))
    for _ in range(3):
        yield (OperatorMatrix(B4, random_hermitian(4, rng, scale=3.0)),
               OperatorMatrix(B4, random_hermitian(4, rng)))


class TestEigenbasisAssembly:
    @_PROPERTY
    @given(baths())
    def test_filtered_operators_match_the_component_loop(self, hb):
        h, bath = hb
        pairs = zip(zip(*_filtered_operators(bath, h)), reference_filtered_operators(bath, h),
                    strict=True)
        for (l, lam, theta), (l_ref, lam_ref, theta_ref) in pairs:
            assert np.array_equal(l, l_ref)
            assert _close(lam, lam_ref)
            assert _close(theta, theta_ref)

    @_PROPERTY
    @given(baths())
    def test_length_counts_the_items_and_the_eigenbasis_holds_their_sum(self, hb):
        h, bath = hb
        for coupling in bath.couplings:
            parts = frequency_decompose(h, coupling)
            items = list(parts)
            assert len(parts) == len(items) >= 1
            assert parts[-1].omega == items[-1].omega
            total = sum(c.matrix.entries for c in items)
            assert _close(parts.vecs @ parts.entries @ parts.vecs.conj().T, total)
            assert set(np.unique(parts.omega)) >= {c.omega for c in items}

    def test_items_equal_the_per_component_list(self):
        for h, lam in _fixtures():
            parts = frequency_decompose(h, lam)
            ref = reference_frequency_decompose(h, lam)
            assert [c.omega for c in parts] == [c.omega for c in ref]
            for got, want in zip(parts, ref, strict=True):
                assert np.array_equal(got.matrix.entries, want.matrix.entries)

    def test_the_decomposition_is_read_only(self):
        h, bath = build_bath(_transverse_params())
        parts = frequency_decompose(h, bath.couplings[0])
        for a in (parts.vecs, parts.omega, parts.entries):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        bloch_redfield._bohr_bins.cache_clear()  # no H seen before
        bloch_redfield._eigenbasis_coupling.cache_clear()
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    def test_eigh_runs_once_per_hamiltonian(self, eigh_calls):
        p = ThreeStateParams(omega0=0.0, omega_s=1e9, beta=1e-9, transverse=Lorentzian(1e17, 1e-10),
                             splitting=Lorentzian(5e16, 1e-10), isotropic=True)
        h, bath = build_bath(p)
        for assemble in (relaxation_supermatrix, double_commutator_part, thermal_part):
            assemble(bath, h)
        assert len(bath.couplings) == 4 and len(eigh_calls) == 1
        relaxation_supermatrix(bath, build_bath(p)[0])  # equal (omega0, omega_s), a new H
        assert len(eigh_calls) == 1
        relaxation_supermatrix(bath, build_bath(replace(p, omega_s=2e9))[0])
        assert len(eigh_calls) == 2

    def test_a_coupling_is_taken_into_the_eigenbasis_once_per_hamiltonian(self, eigh_calls):
        h, bath = build_bath(_transverse_params())
        first = frequency_decompose(h, bath.couplings[0])
        again = frequency_decompose(build_bath(_transverse_params())[0], bath.couplings[0])
        assert again.entries is first.entries
        assert frequency_decompose(h, bath.couplings[1]).entries is not first.entries

    def test_the_least_recently_used_hamiltonian_is_dropped_past_the_bound(self, eigh_calls):
        def assemble(omega_s):
            h, bath = build_bath(replace(_transverse_params(), omega_s=omega_s))
            return relaxation_supermatrix(bath, h).matrix

        first = assemble(1e9)
        for k in range(bloch_redfield.BINS_KEPT):
            assemble(2e9 + k)
        assert bloch_redfield._bohr_bins.cache_info().currsize == bloch_redfield.BINS_KEPT
        assert len(eigh_calls) == bloch_redfield.BINS_KEPT + 1
        assert np.array_equal(assemble(1e9), first)
        assert len(eigh_calls) == bloch_redfield.BINS_KEPT + 2


@st.composite
def _chained_spectra(draw):
    """Levels whose gaps sit near the merge threshold, shifted off centre."""
    gaps = draw(
        st.lists(
            st.one_of(st.floats(0.0, 3.0 * FREQUENCY_BIN_RTOL), st.floats(1e-3, 1.0)),
            min_size=1,
            max_size=6,
        )
    )
    shift = draw(st.floats(-2.0, 2.0))
    return np.concatenate(([0.0], np.cumsum(gaps))) + shift


class TestClusterPairing:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_chained_spectra())
    def test_clusters_antisymmetric_under_negation(self, levels):
        freq = levels[:, None] - levels[None, :]
        threshold = FREQUENCY_BIN_RTOL * (np.abs(levels).max() or 1.0)
        reps, labels = _cluster_frequencies(freq.reshape(-1), threshold)
        labels = labels.reshape(freq.shape)
        n = reps.size
        assert np.array_equal(reps, -reps[::-1])
        # the element at -w sits in the mirror cluster of the element at +w
        assert np.array_equal(labels.T, n - 1 - labels)
        assert np.all(np.diff(reps) > 0)
