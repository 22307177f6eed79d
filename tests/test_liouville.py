import re

import numpy as np
import pytest
from _util import (
    hermiticity_defect_sample,
    random_density,
    random_hermitian,
    reference_expm_steps,
    reference_rk_propagate,
)
from scipy.linalg import expm

from spinkinetics import (
    BasisLabel,
    BathSpec,
    CouplingOperator,
    DensityMatrix,
    Lorentzian,
    DimensionMismatchError,
    NonDecayingGeneratorError,
    NumericalError,
    OperatorMatrix,
    Superoperator,
    ValidationError,
    anticommutator_super,
    assemble_generator,
    commutator_super,
    conjugation_super,
    infinite_time_integral,
    projector_dephasing_super,
    propagate,
    relaxation_supermatrix,
    sandwich_super,
    validity_check,
)
from spinkinetics.liouville import STEP_RTOL, _expm_steps, _sandwich, vectorize

B3 = BasisLabel(("0", "1", "2"))
B4 = BasisLabel(("a", "b", "c", "d"))


def op(basis, entries):
    return OperatorMatrix(basis, entries)


class TestBasis:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            BasisLabel(("x", "x"))

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            BasisLabel(("x",))

    def test_index_lookup(self):
        assert B3.index("2") == 2
        with pytest.raises(ValidationError):
            B3.index("T+")

    def test_vec_index_is_the_row_major_position(self):
        rho = np.random.default_rng(11).normal(size=(4, 4)) + 0j
        v = vectorize(rho)
        for i, row in enumerate(B4.names):
            for j, col in enumerate(B4.names):
                assert v[B4.vec_index(row, col)] == rho[i, j]


class TestConstructors:
    def test_commutator_with_identity_is_zero(self):
        sup = commutator_super(op(B3, np.eye(3)))
        assert np.abs(sup.matrix).max() == 0.0

    def test_commutator_diagonal_gives_transition_frequency(self):
        omega0, omega_s = 2.3, 1.7
        h = op(B3, np.diag([omega0, 0.5 * omega_s, -0.5 * omega_s]))
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 1] = 1.0
        out = commutator_super(h).apply(rho)
        assert out[0, 1] == pytest.approx(omega0 - 0.5 * omega_s, rel=1e-14)
        out[0, 1] = 0.0
        assert np.abs(out).max() == 0.0

    def test_commutator_matches_direct_product(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = random_hermitian(4, rng)
            rho = random_density(4, rng)
            direct = a @ rho - rho @ a
            assert np.abs(commutator_super(op(B4, a)).apply(rho) - direct).max() < 1e-13

    def test_anticommutator_identity_doubles(self):
        rng = np.random.default_rng(4)
        rho = random_density(3, rng)
        out = anticommutator_super(op(B3, np.eye(3))).apply(rho)
        assert np.abs(out - 2 * rho).max() < 1e-15

    def test_anticommutator_one_sided_projection(self):
        p0 = np.diag([1.0, 0.0, 0.0])
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 1] = 1.0  # |0><1|: projector acts from the left only
        out = anticommutator_super(op(B3, p0)).apply(rho)
        assert np.abs(out - rho).max() < 1e-15

    def test_anticommutator_matches_direct_product(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(4, rng)
        rho = random_density(4, rng)
        direct = a @ rho + rho @ a
        assert np.abs(anticommutator_super(op(B4, a)).apply(rho) - direct).max() < 1e-13

    def test_sandwich_identity_is_identity(self):
        sup = sandwich_super(op(B3, np.eye(3)))
        assert np.abs(sup.matrix - np.eye(9)).max() == 0.0

    def test_sandwich_projector_keeps_projected_state(self):
        p1 = np.diag([0.0, 1.0, 0.0])
        rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
        out = sandwich_super(op(B3, p1)).apply(rho)
        assert np.abs(out - rho).max() < 1e-15

    def test_sandwich_matches_direct_product(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(4, rng)
        rho = random_density(4, rng)
        assert np.abs(sandwich_super(op(B4, a)).apply(rho) - a @ rho @ a).max() < 1e-13

    def test_conjugation_matches_direct_product(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        rho = random_density(4, rng)
        out = conjugation_super(op(B4, a), op(B4, b)).apply(rho)
        assert np.abs(out - a @ rho @ b).max() < 1e-13

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            OperatorMatrix(B3, np.eye(4))

    def test_basis_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            conjugation_super(op(B3, np.eye(3)), op(BasisLabel(("x", "y", "z")), np.eye(3)))


def sandwich_operands(n):
    """Random complex pairs, identities and signed zeros, as (a, b) pairs."""
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    eye = np.eye(n)
    signed = np.where(rng.random((n, n)) < 0.5, -0.0, 0.0) + 1j * np.where(
        rng.random((n, n)) < 0.5, -0.0, 0.0
    )
    return [(a, b), (a, eye), (eye, a), (eye, eye), (signed, a), (a, signed), (a, -b)]


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_sandwich_is_kron_with_the_right_factor_transposed(n):
    for a, b in sandwich_operands(n):
        assert _sandwich(a, b).tobytes() == np.kron(a, b.T).tobytes()


class TestGenerator:
    def test_pure_decay_reactor(self):
        kappa = 3.5
        h = op(B3, np.zeros((3, 3)))
        k = kappa * Superoperator.identity(B3)
        gen = assemble_generator(h, reactors=[k])
        assert np.abs(gen.matrix + kappa * np.eye(9)).max() < 1e-14

    def test_generator_preserves_hermiticity(self):
        rng = np.random.default_rng(8)
        h = op(B4, random_hermitian(4, rng))
        relaxer = projector_dephasing_super(op(B4, np.diag([1.0, 0, 0, 0])))
        gen = assemble_generator(h, relaxers=[-2.0 * relaxer])
        assert hermiticity_defect_sample(gen) < 1e-12
        rho = random_density(4, rng)
        out = gen.apply(rho)
        assert np.abs(out - out.conj().T).max() < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(9)
        gen = assemble_generator(op(B4, random_hermitian(4, rng)))
        r1 = random_density(4, rng)
        r2 = random_density(4, rng)
        a, b = 0.3 - 0.2j, 1.1 + 0.4j
        lhs = gen.apply(a * r1 + b * r2)
        rhs = a * gen.apply(r1) + b * gen.apply(r2)
        assert np.abs(lhs - rhs).max() < 1e-13

    def test_commutator_traceless(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            a = random_hermitian(4, rng)
            rho = random_density(4, rng)
            assert abs(np.trace(commutator_super(op(B4, a)).apply(rho))) < 1e-12


def _random_lindblad_generator(rng, basis):
    """Trace-preserving random generator: -i[H, .] + dissipator."""
    n = basis.dim
    h = OperatorMatrix(basis, random_hermitian(n, rng, scale=2.0))
    l_raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    l_op = OperatorMatrix(basis, l_raw / np.linalg.norm(l_raw))
    l_dag = OperatorMatrix(basis, l_op.entries.conj().T)
    l_dag_l = OperatorMatrix(basis, l_dag.entries @ l_op.entries)
    dissipator = conjugation_super(l_op, l_dag) - 0.5 * anticommutator_super(l_dag_l)
    return assemble_generator(h, relaxers=[2.0 * dissipator])


class TestPropagate:
    def test_uniform_decay(self):
        kappa = 2.0
        gen = -kappa * Superoperator.identity(B3)
        rho0 = DensityMatrix.basis_state(B3, "1")
        times = np.linspace(0.1, 2.0, 8)
        prop = propagate(gen, rho0, times)
        for t, pop in zip(prop.times, prop.populations()[:, B3.index("1")]):
            assert pop == pytest.approx(np.exp(-kappa * t), rel=1e-12)

    def test_expm_and_rk_agree(self):
        rng = np.random.default_rng(11)
        gen = _random_lindblad_generator(rng, B4)
        t_final = 5.0 / gen.norm()
        times = np.linspace(t_final / 4, t_final, 4)
        rho0 = DensityMatrix(B4, random_density(4, rng))
        a = propagate(gen, rho0, times)
        b = reference_rk_propagate(gen, rho0, times)
        worst = max(
            np.abs(x - y).max() for x, y in zip(a.states, b.states)
        )
        assert worst < 1e-8

    def test_semigroup_property(self):
        rng = np.random.default_rng(12)
        gen = _random_lindblad_generator(rng, B3)
        rho0 = DensityMatrix(B3, random_density(3, rng))
        t1, t2 = 0.13 / gen.norm(), 0.71 / gen.norm()
        two_steps = propagate(gen, rho0, [t1, t1 + t2]).states[-1]
        one_step = propagate(gen, rho0, [t1 + t2]).states[-1]
        assert np.abs(two_steps - one_step).max() < 1e-9

    def test_bad_times_rejected(self):
        gen = -1.0 * Superoperator.identity(B3)
        rho0 = DensityMatrix.basis_state(B3, "0")
        with pytest.raises(ValidationError):
            propagate(gen, rho0, [0.2, 0.1])
        with pytest.raises(ValidationError):
            propagate(gen, rho0, [-0.1, 0.2])


def _decaying_generator(n, seed):
    """Raw rad/s generator on n levels (a random Lindblad one shifted to decay)
    and a random vectorised density matrix."""
    rng = np.random.default_rng(seed)
    lindblad = _random_lindblad_generator(rng, BasisLabel(tuple(str(i) for i in range(n))))
    g = 1e9 * (lindblad.matrix - 0.2 * lindblad.norm() * np.eye(n * n))
    return g, random_density(n, rng).reshape(-1)


class TestStepMatrices:
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_one_matrix_per_grid_agrees_with_step_by_step_expm(self, n):
        g, v0 = _decaying_generator(n, seed=20 + n)
        t_max = 10.0 / np.linalg.norm(g)
        # steps alternating 1e-9 apart, far beyond STEP_RTOL, need their own matrices
        alternating = np.cumsum(np.resize([t_max / 40, t_max / 40 * (1.0 + 1e-9)], 40))
        for times in (np.linspace(0.0, t_max, 201), np.linspace(0.0, 5 * t_max, 2001)[1:],
                      alternating):
            # the steps differ in the 15th digit or earlier, so the reference
            # computes several matrices
            assert len({f"{dt:.15g}" for dt in np.diff(times)}) > 1
            got = _expm_steps(g, v0, times)
            want = reference_expm_steps(g, v0, times)
            rel = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
            assert rel.max() <= 1e-12

    def test_a_grid_from_zero_costs_one_exponential(self, expm_calls):
        rng = np.random.default_rng(3)
        gen = _random_lindblad_generator(rng, B3)
        rho0 = DensityMatrix(B3, random_density(3, rng))
        prop = propagate(gen, rho0, np.linspace(0.0, 5.0 / gen.norm(), 201))
        assert len(expm_calls) == 1
        # the zero first step leaves the state as it is
        assert np.array_equal(prop.states[0], rho0.entries)

    def test_a_grid_without_zero_costs_one_exponential(self, expm_calls):
        g, v0 = _decaying_generator(3, seed=4)
        _expm_steps(g, v0, np.linspace(0.0, 1e-8, 201)[1:])
        assert len(expm_calls) == 1

    def test_a_geometric_grid_costs_one_exponential_per_step(self, expm_calls):
        g, v0 = _decaying_generator(3, seed=5)
        _expm_steps(g, v0, np.geomspace(1e-12, 1e-8, 40))
        assert len(expm_calls) == 40

    @pytest.mark.parametrize("shift, matrices", [(0.1, 1), (10.0, 2)])
    def test_steps_share_a_matrix_only_within_the_tolerance(self, expm_calls, shift, matrices):
        g, v0 = _decaying_generator(2, seed=6)
        dt = 1e-10
        _expm_steps(g, v0, np.array([dt, dt + dt * (1.0 + shift * STEP_RTOL)]))
        assert len(expm_calls) == matrices


def _out_of_regime_redfield(seed=0):
    """Random three-level Redfield generator far outside the second-order regime.

    Started from the ground state of H with 1% of the maximally mixed state
    (smallest eigenvalue 1/300), it loses positivity after about 0.14 ns
    (validity ratio ~7 for seed 0).
    """
    rng = np.random.default_rng(seed)
    h = OperatorMatrix(B3, 1e9 * random_hermitian(3, rng), hermitian=True)
    c = OperatorMatrix(B3, random_hermitian(3, rng), hermitian=True)
    bath = BathSpec.uncorrelated(
        [CouplingOperator("c", c, 0)], [Lorentzian(amplitude=3e18, tau_c=1e-9)], beta=1e-9
    )
    relax = relaxation_supermatrix(bath, h)
    assert validity_check(relax, 1e-9).ratio > 1.0
    gen = assemble_generator(h, relaxers=[relax])
    ground = DensityMatrix.pure(B3, np.linalg.eigh(h.entries)[1][:, 0]).entries
    return gen, DensityMatrix(B3, 0.99 * ground + 0.01 * np.eye(3) / 3)


class TestBatchedStateCheck:
    def test_states_are_one_read_only_array(self):
        rng = np.random.default_rng(14)
        gen = _random_lindblad_generator(rng, B3)
        prop = propagate(gen, DensityMatrix(B3, random_density(3, rng)), [0.1, 0.2, 0.4])
        assert isinstance(prop.states, np.ndarray)
        assert prop.states.shape == (3, 3, 3)
        assert not prop.states.flags.writeable
        assert np.array_equal(prop.states, prop.states.conj().swapaxes(1, 2))

    def test_positivity_loss_names_first_time_and_lambda_min(self):
        gen, rho0 = _out_of_regime_redfield()
        times = np.linspace(0.0, 2e-10, 41)
        # reference: each grid time on its own, by one direct exponential
        lambdas = []
        for t in times:
            rho = (expm(gen.matrix * t) @ rho0.entries.reshape(-1)).reshape(3, 3)
            lambdas.append(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
        first = int(np.flatnonzero(np.array(lambdas) < -1e-9)[0])
        assert 10 < first < times.size - 10
        with pytest.raises(ValidationError) as info:
            propagate(gen, rho0, times)
        message = str(info.value)
        t_named = float(re.search(r"t = (\S+) s", message).group(1))
        lambda_named = float(re.search(r"lambda_min (\S+) ", message).group(1))
        assert t_named == pytest.approx(times[first], rel=1e-11)
        assert lambda_named == pytest.approx(lambdas[first], rel=1e-4)

    def test_rk_path_runs_the_same_check(self):
        gen, rho0 = _out_of_regime_redfield()
        with pytest.raises(ValidationError, match="lambda_min"):
            reference_rk_propagate(gen, rho0, np.linspace(1e-11, 2e-10, 20))

    def test_non_finite_states_are_numerical_errors(self):
        gen = Superoperator(B3, 1e200 * np.eye(9))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
            propagate(gen, DensityMatrix.basis_state(B3, "0"), [1.0, 2.0])


class TestInfiniteTimeIntegral:
    def test_uniform_decay_gives_rho_over_kappa(self):
        kappa = 4.0
        gen = -kappa * Superoperator.identity(B3)
        rho0 = DensityMatrix.basis_state(B3, "0")
        x = infinite_time_integral(gen, rho0)
        assert np.abs(x.entries - rho0.entries / kappa).max() < 1e-14

    def test_nondecaying_generator_rejected(self):
        h = op(B3, np.diag([1.0, 2.0, 3.0]))
        gen = assemble_generator(h)  # purely imaginary spectrum
        with pytest.raises(NonDecayingGeneratorError):
            infinite_time_integral(gen, DensityMatrix.basis_state(B3, "0"))

    def test_matches_quadrature(self):
        from scipy.integrate import simpson

        rng = np.random.default_rng(13)
        gen = _random_lindblad_generator(rng, B3) - 1.5 * Superoperator.identity(B3)
        rho0 = DensityMatrix(B3, random_density(3, rng))
        x = infinite_time_integral(gen, rho0)
        t = np.linspace(0.0, 20.0, 4001)
        prop = propagate(gen, rho0, t[1:])
        stack = np.array([rho0.entries] + list(prop.states))
        quad = simpson(stack, x=t, axis=0)
        assert np.abs(x.entries - quad).max() / np.abs(x.entries).max() < 1e-6


class TestDensityValidation:
    def test_trace_above_one_rejected(self):
        with pytest.raises(ValidationError):
            DensityMatrix(B3, np.diag([0.8, 0.8, 0.0]))

    def test_non_hermitian_rejected(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 0] = 1.0
        m[0, 1] = 0.5
        with pytest.raises(ValidationError):
            DensityMatrix(B3, m)

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([0.8, 0.3, -0.1])
        with pytest.raises(ValidationError):
            DensityMatrix(B3, m)

    def test_decayed_trace_allowed(self):
        DensityMatrix(B3, np.diag([0.1, 0.05, 0.0]))
