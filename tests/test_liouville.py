import re
from unittest import mock

import numpy as np
import pytest
from _util import (
    hermiticity_defect_sample,
    random_density,
    random_hermitian,
    reference_eigvalsh_density_stack,
    reference_expm_steps,
    reference_matmul_expm_steps,
    reference_rk_propagate,
    reference_vec_of_coordinates,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm
from test_bloch_redfield import baths
from test_stochastic import traced_peak

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
    WhiteNoise,
    assemble_generator,
    infinite_time_integral,
    propagate,
    relaxation_supermatrix,
    validity_check,
)
from spinkinetics import liouville
from spinkinetics._blas import one_thread
from spinkinetics.liouville import (
    DENSITY_EIG_FLOOR,
    DENSITY_TRACE_CEILING,
    STATE_SLICE_BYTES,
    STEP_RTOL,
    _anticommutator,
    _checked_states,
    _commutator,
    _coordinate_states,
    _density_stack,
    _expm_steps,
    _hermitian_form,
    _hermitised,
    _projector_dephasing,
    _real_coordinates,
    _sandwich,
    _working_form,
    vectorize,
)
from spinkinetics.three_state import THREE_STATE_BASIS, ThreeStateParams, build_bath

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
        sup = Superoperator(B3, _commutator(np.eye(3)))
        assert np.abs(sup.matrix).max() == 0.0

    def test_commutator_diagonal_gives_transition_frequency(self):
        omega0, omega_s = 2.3, 1.7
        h = op(B3, np.diag([omega0, 0.5 * omega_s, -0.5 * omega_s]))
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 1] = 1.0
        out = Superoperator(B3, _commutator(h.entries)).apply(rho)
        assert out[0, 1] == pytest.approx(omega0 - 0.5 * omega_s, rel=1e-14)
        out[0, 1] = 0.0
        assert np.abs(out).max() == 0.0

    def test_commutator_matches_direct_product(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = random_hermitian(4, rng)
            rho = random_density(4, rng)
            direct = a @ rho - rho @ a
            assert np.abs(Superoperator(B4, _commutator(a)).apply(rho) - direct).max() < 1e-13

    def test_anticommutator_identity_doubles(self):
        rng = np.random.default_rng(4)
        rho = random_density(3, rng)
        out = Superoperator(B3, _anticommutator(np.eye(3))).apply(rho)
        assert np.abs(out - 2 * rho).max() < 1e-15

    def test_anticommutator_one_sided_projection(self):
        p0 = np.diag([1.0, 0.0, 0.0])
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 1] = 1.0  # |0><1|: projector acts from the left only
        out = Superoperator(B3, _anticommutator(p0)).apply(rho)
        assert np.abs(out - rho).max() < 1e-15

    def test_anticommutator_matches_direct_product(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(4, rng)
        rho = random_density(4, rng)
        direct = a @ rho + rho @ a
        assert np.abs(Superoperator(B4, _anticommutator(a)).apply(rho) - direct).max() < 1e-13

    def test_sandwich_identity_is_identity(self):
        sup = Superoperator(B3, _sandwich(np.eye(3), np.eye(3)))
        assert np.abs(sup.matrix - np.eye(9)).max() == 0.0

    def test_sandwich_projector_keeps_projected_state(self):
        p1 = np.diag([0.0, 1.0, 0.0])
        rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
        out = Superoperator(B3, _sandwich(p1, p1)).apply(rho)
        assert np.abs(out - rho).max() < 1e-15

    def test_sandwich_matches_direct_product(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(4, rng)
        rho = random_density(4, rng)
        assert np.abs(Superoperator(B4, _sandwich(a, a)).apply(rho) - a @ rho @ a).max() < 1e-13

    def test_conjugation_matches_direct_product(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        rho = random_density(4, rng)
        out = Superoperator(B4, _sandwich(a, b)).apply(rho)
        assert np.abs(out - a @ rho @ b).max() < 1e-13

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            OperatorMatrix(B3, np.eye(4))

    def test_basis_mismatch_rejected(self):
        other = Superoperator(BasisLabel(("x", "y", "z")), np.zeros((9, 9)))
        with pytest.raises(DimensionMismatchError):
            assemble_generator(op(B3, np.eye(3)), relaxers=[other])
        with pytest.raises(DimensionMismatchError):
            assemble_generator(op(B3, np.eye(3)), reactors=[other])


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


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_a_stacked_sandwich_is_the_sum_of_its_pairs(n):
    pairs = sandwich_operands(n)
    stacked = _sandwich(np.array([a for a, _ in pairs]), np.array([b for _, b in pairs]))
    summed = sum(_sandwich(a, b) for a, b in pairs)
    assert np.abs(stacked - summed).max() <= 1e-15 * np.abs(summed).max()


class TestGenerator:
    def test_pure_decay_reactor(self):
        kappa = 3.5
        h = op(B3, np.zeros((3, 3)))
        k = Superoperator(B3, kappa * np.eye(9))
        gen = assemble_generator(h, reactors=[k])
        assert np.abs(gen.matrix + kappa * np.eye(9)).max() < 1e-14

    def test_generator_preserves_hermiticity(self):
        rng = np.random.default_rng(8)
        h = op(B4, random_hermitian(4, rng))
        relaxer = Superoperator(B4, -2.0 * _projector_dephasing(np.diag([1.0, 0, 0, 0])))
        gen = assemble_generator(h, relaxers=[relaxer])
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
            assert abs(np.trace(Superoperator(B4, _commutator(a)).apply(rho))) < 1e-12


def _random_lindblad_generator(rng, basis):
    """Trace-preserving random generator: -i[H, .] + dissipator."""
    n = basis.dim
    h = OperatorMatrix(basis, random_hermitian(n, rng, scale=2.0))
    l_raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    l_op = l_raw / np.linalg.norm(l_raw)
    l_dag = l_op.conj().T
    dissipator = _sandwich(l_op, l_dag) - 0.5 * _anticommutator(l_dag @ l_op)
    return assemble_generator(h, relaxers=[Superoperator(basis, 2.0 * dissipator)])


class TestPropagate:
    def test_uniform_decay(self):
        kappa = 2.0
        gen = Superoperator(B3, -kappa * np.eye(9))
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
        gen = Superoperator(B3, -np.eye(9))
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


class TestStepperBytes:
    @staticmethod
    def grids(t_max):
        dt = t_max / 40
        # neighbouring step lengths 0.1 to 30 STEP_RTOL apart: some steps
        # reuse the last matrix, others need their own
        mixed = dt * (1.0 + np.array([0.0, 0.1, 10.0, 0.5, 30.0, 0.0, 10.0, 0.1]) * STEP_RTOL)
        return {
            "uniform from zero": np.linspace(0.0, t_max, 201),
            "not from zero": np.linspace(0.0, 5 * t_max, 2001)[1:],
            "inside and outside STEP_RTOL": np.cumsum(np.resize(mixed, 40)),
        }

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_the_stepper_keeps_the_bytes_of_the_matmul_loop(self, n):
        g, v0 = _decaying_generator(n, seed=40 + n)
        for name, times in self.grids(10.0 / np.linalg.norm(g)).items():
            with one_thread(n * n):
                got = _expm_steps(g, v0, times)
                want = reference_matmul_expm_steps(g, v0, times)
            assert got.tobytes() == want.tobytes(), name

    def test_the_mixed_grid_needs_matrices_inside_and_outside_the_tolerance(self, expm_calls):
        g, v0 = _decaying_generator(2, seed=42)
        times = self.grids(10.0 / np.linalg.norm(g))["inside and outside STEP_RTOL"]
        _expm_steps(g, v0, times)
        assert 1 < len(expm_calls) < times.size


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


def _random_states(n, size, rng):
    """(size, n, n) density matrices of random rank 1..n (rank 1: pure, lambda_min
    0) and random trace in [0, 1], each as a @ a^dag, so Hermitian only to
    rounding."""
    rank = rng.integers(1, n + 1, size)
    a = rng.normal(size=(size, n, n)) + 1j * rng.normal(size=(size, n, n))
    a *= np.arange(n) < rank[:, None, None]
    rho = a @ a.conj().swapaxes(1, 2)
    return rho * (rng.random(size) / np.trace(rho, axis1=1, axis2=2).real)[:, None, None]


def _with_lambda_min(rho, value):
    """rho with its smallest eigenvalue set to ``value``."""
    w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    w[0] = value
    return (v * w) @ v.conj().T


def _outcome(call):
    """The bytes of the states ``call()`` returns, or the class and message it raises."""
    try:
        return call().tobytes()
    except (ValidationError, NumericalError) as error:
        return type(error), str(error)


def coordinate_stacks(elements):
    """(N, x) with x a (1..20, N^2) array of real coordinates drawn from ``elements``."""
    return st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), arrays(
        float, st.tuples(st.integers(1, 20), st.just(n * n)), elements=elements)))


class TestCholeskyStateCheck:
    """The factorisation check returns the bytes and raises the errors of the
    eigvalsh check it replaced, however the stack is cut into slices."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 6), size=st.integers(1, 700), seed=st.integers(0, 2**32 - 1),
           slice_bytes=st.sampled_from([1, 1000, STATE_SLICE_BYTES]),
           defect=st.sampled_from([None, "below floor", "above floor", "trace above",
                                   "trace below"]),
           timed=st.booleans())
    def test_matches_the_eigvalsh_check(self, n, size, seed, slice_bytes, defect, timed):
        rng = np.random.default_rng(seed)
        stack = _random_states(n, size, rng)
        k = int(rng.integers(size))
        if defect in ("below floor", "above floor"):
            sign = -1.0 if defect == "below floor" else 1.0
            stack[k] = _with_lambda_min(stack[k], DENSITY_EIG_FLOOR + sign * 1e-12)
        elif defect is not None:
            target = DENSITY_TRACE_CEILING + 1e-6 if defect == "trace above" else -1e-6
            stack[k] += (target - np.trace(stack[k]).real) / n * np.eye(n)
        times = np.sort(rng.random(size)) if timed else None
        want = _outcome(lambda: reference_eigvalsh_density_stack(stack.copy(), times))
        assert isinstance(want, bytes) == (defect in (None, "above floor"))
        with mock.patch.object(liouville, "STATE_SLICE_BYTES", slice_bytes):
            assert _outcome(lambda: _density_stack(stack.copy(), times)) == want
            assert _outcome(lambda: _checked_states(_hermitised(stack), times)) == want

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(coordinate_stacks(st.floats(-1e300, 1e300)))
    def test_coordinate_states_are_the_hermitised_stack_bit_for_bit(self, case):
        n, x = case
        want = _hermitised(reference_vec_of_coordinates(x, n).reshape(-1, n, n))
        assert _coordinate_states(x, n).tobytes() == want.tobytes()

    def test_holds_one_shifted_slice_beside_the_stack(self):
        stack = _hermitised(_random_states(4, 20001, np.random.default_rng(61)))
        _checked_states(stack[:2].copy())  # first-call imports, untraced
        peak = traced_peak(lambda: _checked_states(stack, np.arange(20001.0)))
        scratch = 2 * STATE_SLICE_BYTES  # the shifted slice and its factor
        assert peak <= scratch + 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestInfiniteTimeIntegral:
    def test_uniform_decay_gives_rho_over_kappa(self):
        kappa = 4.0
        gen = Superoperator(B3, -kappa * np.eye(9))
        rho0 = DensityMatrix.basis_state(B3, "0")
        x = infinite_time_integral(gen, rho0)
        assert np.abs(x.entries - rho0.entries / kappa).max() < 1e-14

    def test_nondecaying_generator_rejected(self):
        h = op(B3, np.diag([1.0, 2.0, 3.0]))
        gen = assemble_generator(h)  # purely imaginary spectrum
        with pytest.raises(NonDecayingGeneratorError):
            infinite_time_integral(gen, DensityMatrix.basis_state(B3, "0"))

    @pytest.mark.parametrize("slowest, message", [
        # stiff but decaying: the slowest mode sits inside -DECAY_MARGIN * ||L|| = -100
        (-1.9, r"^generator's slowest mode decays at -1\.900e\+00, inside the margin band "
               r"\[-1\.000e\+02, 0\) of DECAY_MARGIN = 1e-12 times its norm 1\.000e\+14$"),
        (0.0, r"^generator has non-decaying modes \(max Re eigenvalue 0\.000e\+00 "
              r"vs norm 1\.000e\+14\)$"),
        (2.0, r"^generator has non-decaying modes \(max Re eigenvalue 2\.000e\+00 "),
    ], ids=["inside-the-margin", "zero", "growing"])
    def test_a_rejected_generator_names_why(self, slowest, message):
        rates = np.full(9, -1e14)
        rates[B3.vec_index("0", "0")] = slowest  # one population, beside fast rates
        gen = Superoperator(B3, np.diag(rates))
        with pytest.raises(NonDecayingGeneratorError, match=message):
            infinite_time_integral(gen, DensityMatrix.basis_state(B3, "0"))

    def test_matches_quadrature(self):
        from scipy.integrate import simpson

        rng = np.random.default_rng(13)
        gen = Superoperator(B3, _random_lindblad_generator(rng, B3).matrix - 1.5 * np.eye(9))
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


@st.composite
def hermiticity_preserving_generators(draw):
    """A random Lindblad generator, or a Redfield one whose H may be near-degenerate."""
    if draw(st.booleans()):
        h, bath = draw(baths())
        return assemble_generator(h, relaxers=[relaxation_supermatrix(bath, h)])
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _random_lindblad_generator(rng, BasisLabel(tuple(str(k) for k in range(n))))


def _basis_change(n):
    """Dense T with vec(rho) = T x for the Hermitian-basis coordinates x."""
    t = np.eye(n * n, dtype=complex)
    for j in range(n):
        for k in range(j + 1, n):
            jk, kj = j * n + k, k * n + j
            t[kj, jk] = 1.0
            t[jk, kj], t[kj, kj] = 1j, -1j
    return t


def _mixed_state(basis, rng):
    """Half a random state, half the maximally mixed one: far from the positivity floor."""
    n = basis.dim
    return DensityMatrix(basis, 0.5 * random_density(n, rng) + 0.5 * np.eye(n) / n)


def _hermitised_solve(l, rho0):
    """infinite_time_integral as it was computed before: the solve in the
    Hermitian basis, inverted by reference_vec_of_coordinates, then Hermitised."""
    n = l.dim
    g, real = _working_form(l)
    assert real
    with one_thread(n * n):
        x = np.linalg.solve(-g, _real_coordinates(vectorize(rho0.entries), n))
    xm = reference_vec_of_coordinates(x, n).reshape(n, n)
    return 0.5 * (xm + xm.conj().T)


_HERMITIAN_BASIS = settings(max_examples=40, deadline=None, derandomize=True)


class TestHermitianBasis:
    @_HERMITIAN_BASIS
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_hermitian_vectors_go_to_real_coordinates_and_back_exactly(self, n, seed):
        rng = np.random.default_rng(seed)
        basis = BasisLabel(tuple(str(k) for k in range(n)))
        for rho in (random_hermitian(n, rng), DensityMatrix(basis, random_density(n, rng)).entries):
            v = vectorize(rho)
            x = _real_coordinates(v, n)
            assert x.dtype == float
            assert np.array_equal(_coordinate_states(x, n).reshape(-1), v)
            assert np.array_equal(_basis_change(n) @ x, v)

    @_HERMITIAN_BASIS
    @given(hermiticity_preserving_generators())
    def test_the_real_form_is_the_similarity_transform(self, gen):
        t = _basis_change(gen.dim)
        want = np.linalg.solve(t, gen.matrix @ t)
        assert np.abs(want.imag).max() <= 1e-14 * np.abs(gen.matrix).max()
        got = _hermitian_form(gen.matrix, gen.dim)
        assert got.dtype == float
        assert np.abs(got - want.real).max() <= 1e-14 * np.abs(gen.matrix).max()

    @_HERMITIAN_BASIS
    @given(hermiticity_preserving_generators())
    def test_the_norm_matches_the_complex_svd(self, gen):
        want = np.linalg.norm(gen.matrix, 2)
        assert gen.norm() == pytest.approx(want, rel=1e-14)

    @_HERMITIAN_BASIS
    @given(hermiticity_preserving_generators(), st.integers(0, 2**32 - 1))
    def test_propagation_matches_the_vec_basis(self, gen, seed):
        rho0 = _mixed_state(gen.basis, np.random.default_rng(seed))
        times = np.linspace(0.0, 3.0 / gen.norm(), 21)
        got = propagate(gen, rho0, times).states
        n = gen.dim
        want = _density_stack(_expm_steps(gen.matrix, vectorize(rho0.entries), times)
                              .reshape(times.size, n, n))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @_HERMITIAN_BASIS
    @given(hermiticity_preserving_generators(), st.integers(0, 2**32 - 1), st.booleans())
    def test_propagation_keeps_the_bytes_of_the_hermitised_eigvalsh_check(self, gen, seed, pure):
        n = gen.dim
        rho0 = (DensityMatrix.basis_state(gen.basis, gen.basis.names[-1]) if pure
                else _mixed_state(gen.basis, np.random.default_rng(seed)))
        times = np.linspace(0.0, 3.0 / gen.norm(), 21)
        g, real = _working_form(gen)
        with one_thread(n * n):
            x = _expm_steps(g, _real_coordinates(vectorize(rho0.entries), n), times)
        assert real
        want = _outcome(lambda: reference_eigvalsh_density_stack(
            reference_vec_of_coordinates(x, n).reshape(times.size, n, n), times))
        assert _outcome(lambda: propagate(gen, rho0, times).states) == want

    @_HERMITIAN_BASIS
    @given(hermiticity_preserving_generators(), st.integers(0, 2**32 - 1))
    def test_the_infinite_time_integral_matches_the_vec_basis(self, gen, seed):
        n = gen.dim
        decaying = Superoperator(gen.basis, gen.matrix - 0.5 * gen.norm() * np.eye(n * n))
        rho0 = _mixed_state(gen.basis, np.random.default_rng(seed))
        got = infinite_time_integral(decaying, rho0).entries
        x = np.linalg.solve(-decaying.matrix, vectorize(rho0.entries)).reshape(n, n)
        want = 0.5 * (x + x.conj().T)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @_HERMITIAN_BASIS
    @given(hermiticity_preserving_generators(), st.integers(0, 2**32 - 1), st.booleans())
    def test_the_infinite_time_integral_keeps_the_bytes_of_the_hermitised_solve(self, gen, seed,
                                                                               pure):
        n = gen.dim
        decaying = Superoperator(gen.basis, gen.matrix - 1.5 * gen.norm() * np.eye(n * n))
        rho0 = (DensityMatrix.basis_state(gen.basis, gen.basis.names[-1]) if pure
                else _mixed_state(gen.basis, np.random.default_rng(seed)))
        assert (infinite_time_integral(decaying, rho0).entries.tobytes()
                == _hermitised_solve(decaying, rho0).tobytes())

    @pytest.mark.parametrize("n", [3, 4])
    def test_an_uncoupled_state_keeps_the_signed_zeros_of_the_hermitised_solve(self, n):
        basis = BasisLabel(tuple(str(k) for k in range(n)))
        h = np.zeros((n, n))
        h[:2, :2] = [[1.0, 0.3], [0.3, -0.5]]  # state 2 and above never mix
        gen = assemble_generator(op(basis, h), reactors=[Superoperator(basis, np.eye(n * n))])
        rho0 = DensityMatrix.basis_state(basis, "0")
        assert (infinite_time_integral(gen, rho0).entries.tobytes()
                == _hermitised_solve(gen, rho0).tobytes())

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_map_that_does_not_preserve_hermiticity_is_a_numerical_error(self, n):
        rng = np.random.default_rng(30 + n)
        basis = BasisLabel(tuple(str(k) for k in range(n)))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))  # rho -> a rho
        sup = Superoperator(basis, _sandwich(a, np.eye(n)) - 10.0 * np.eye(n * n))
        rho0 = DensityMatrix.maximally_mixed(basis)
        for call in (sup.norm, lambda: propagate(sup, rho0, [0.1, 0.2]),
                     lambda: infinite_time_integral(sup, rho0)):
            with pytest.raises(NumericalError, match="does not preserve Hermiticity"):
                call()

    def test_a_triangular_generator_keeps_the_vec_basis(self):
        p = ThreeStateParams(omega0=0.0, omega_s=1e9, beta=np.inf, transverse=WhiteNoise(1e7),
                             isotropic=True)
        h, bath = build_bath(p)
        gen = assemble_generator(h, relaxers=[relaxation_supermatrix(bath, h)])
        assert not np.triu(gen.matrix, 1).any()
        rho0 = DensityMatrix.pure(THREE_STATE_BASIS, [0, 0.6, 0.8])
        times = np.linspace(0.0, 5e-7, 11)
        want = _density_stack(_expm_steps(gen.matrix, vectorize(rho0.entries), times)
                              .reshape(times.size, 3, 3))
        assert propagate(gen, rho0, times).states.tobytes() == want.tobytes()
