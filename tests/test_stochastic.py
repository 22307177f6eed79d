import math
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from spinkinetics import (
    CorrelationSpectrum,
    NoiseKind,
    NoiseProcess,
    ValidationError,
    closed_loop_check,
    correlation_spectrum,
    extract_rates,
    perturbative_amplitudes,
    simulate_noise,
)
from spinkinetics import stochastic
from spinkinetics.stochastic import CHUNK, _add_chunk, _draw_chunk, _noise_blocks

from _util import (
    reference_bootstrap_slopes,
    reference_correlation,
    reference_dichotomous_chunk,
    reference_einsum_correlation,
    reference_noise_chunk,
    reference_ou_chunk,
    reference_perturbative_amplitudes,
    reference_second_order_amplitude,
    reference_shared_totals_amplitudes,
)

TAU = 1e-13
VAR = 1e18


def ou(seed=42, **kw):
    return NoiseProcess(NoiseKind.ORNSTEIN_UHLENBECK, variance=VAR, tau_c=TAU, seed=seed, **kw)


def dichotomous(seed=42, **kw):
    return NoiseProcess(NoiseKind.DICHOTOMOUS, variance=VAR, tau_c=TAU, seed=seed, **kw)


class TestNoiseProcess:
    def test_coarse_step_rejected(self):
        with pytest.raises(ValidationError):
            NoiseProcess(NoiseKind.ORNSTEIN_UHLENBECK, VAR, TAU, seed=1, dt=TAU / 5)

    def test_default_step(self):
        assert ou().dt == pytest.approx(TAU / 20)

    def test_short_duration_rejected(self):
        with pytest.raises(ValidationError):
            simulate_noise(ou(), 5 * TAU)


def draw_chunk(p, n_steps, n_paths, stream, index):
    draws = np.empty((n_paths, n_steps + 1))
    _draw_chunk(p, draws, stream, index)
    return draws


class TestNoiseChunks:
    """Time-major noise blocks are the transposes of the path-major references, bit for bit."""

    @pytest.mark.parametrize(
        "make, reference",
        [(ou, reference_ou_chunk), (dichotomous, reference_dichotomous_chunk)],
        ids=["ou", "dichotomous"],
    )
    @pytest.mark.parametrize("n_paths", [1, 300, CHUNK])
    def test_chunk_is_the_reference_transposed(self, make, reference, n_paths):
        # 300 and CHUNK paths of 400 steps take several path slices to draw
        p, n_steps, stream, index = make(seed=11), 400, 1, 2
        draws = draw_chunk(p, n_steps, n_paths, stream, index)
        # each block's first row repeats the previous block's last
        rows = [draws[:, 0]] + [w[1:].copy() for _, w in _noise_blocks(p, draws)]
        chunk = np.vstack(rows)
        rng = np.random.default_rng(np.random.SeedSequence((p.seed, stream, index)))
        expected = reference(p, n_steps, n_paths, rng)
        assert chunk.shape == (n_steps + 1, n_paths)
        assert chunk.tobytes() == np.ascontiguousarray(expected.T).tobytes()

    @pytest.mark.parametrize("make", [ou, dichotomous], ids=["ou", "dichotomous"])
    def test_simulated_paths_are_the_reference(self, make):
        p = make(seed=12)
        paths = simulate_noise(p, 20 * TAU, n_paths=CHUNK + 452, stream=1)
        n_steps = paths.times.size - 1
        expected = np.concatenate([reference_noise_chunk(p, n_steps, CHUNK, 1, 0),
                                   reference_noise_chunk(p, n_steps, 452, 1, 1)])
        assert paths.values.tobytes() == expected.tobytes()


class TestNoiseStatistics:
    def test_ou_mean_within_clt_bound(self):
        paths = simulate_noise(ou(seed=1), 40 * TAU, n_paths=4000)
        n_eff = paths.values.size * paths.process.dt / (2 * TAU)
        bound = 3.0 * math.sqrt(VAR / n_eff)
        assert abs(paths.values.mean()) < bound

    def test_ou_variance(self):
        paths = simulate_noise(ou(seed=2), 40 * TAU, n_paths=4000)
        assert np.mean(paths.values**2) == pytest.approx(VAR, rel=0.02)

    def test_ou_lag_correlation(self):
        paths = simulate_noise(ou(seed=3), 60 * TAU, n_paths=4000)
        spec = correlation_spectrum(paths)
        lag_idx = int(round(TAU / paths.process.dt))
        assert spec.correlation[lag_idx] == pytest.approx(VAR / math.e, rel=0.05)

    def test_dichotomous_values_are_two_point(self):
        paths = simulate_noise(dichotomous(seed=4), 20 * TAU, n_paths=50)
        assert np.allclose(np.abs(paths.values), math.sqrt(VAR))

    def test_dichotomous_correlation_matches_ou(self):
        paths = simulate_noise(dichotomous(seed=5), 60 * TAU, n_paths=4000)
        spec = correlation_spectrum(paths)
        lag_idx = int(round(TAU / paths.process.dt))
        assert spec.correlation[lag_idx] == pytest.approx(VAR / math.e, rel=0.05)
        one_step = VAR * math.exp(-paths.process.dt / TAU)
        assert spec.correlation[1] == pytest.approx(one_step, rel=0.05)

    def test_seeded_determinism(self):
        a = simulate_noise(ou(seed=9), 20 * TAU, n_paths=64)
        b = simulate_noise(ou(seed=9), 20 * TAU, n_paths=64)
        assert np.array_equal(a.values, b.values)


class TestSpectrum:
    def test_matches_analytic_lorentzian(self):
        paths = simulate_noise(ou(seed=6), 80 * TAU, n_paths=4000)
        spec = correlation_spectrum(paths)
        for w_tau in (0.0, 1.0, 5.0):
            estimate = spec.spectrum(w_tau / TAU)
            analytic = 2 * VAR * TAU / (1 + w_tau**2)
            assert estimate == pytest.approx(analytic, rel=0.05)

    def test_even_in_frequency(self):
        paths = simulate_noise(ou(seed=7), 40 * TAU, n_paths=1200)
        spec = correlation_spectrum(paths)
        w = 1.3 / TAU
        assert spec.spectrum(w) == pytest.approx(spec.spectrum(-w), abs=1e-12 * VAR * TAU)

    def test_window_documented(self):
        paths = simulate_noise(ou(seed=8), 40 * TAU, n_paths=1200)
        spec = correlation_spectrum(paths)
        assert spec.window == "rectangular"
        assert spec.window_t_max == pytest.approx(10 * TAU, rel=0.01)

    @pytest.mark.parametrize("omega", [0.0, -0.0, 1.3 / TAU, -5.0 / TAU, 7])
    def test_a_scalar_call_is_the_one_element_array_call(self, omega):
        lags = np.linspace(0.0, 10 * TAU, 201)
        spec = CorrelationSpectrum(ou(), lags, VAR * np.exp(-lags / TAU), "rectangular", 10 * TAU)
        got = spec.spectrum(omega)
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == spec.spectrum(np.array([omega]))[0].tobytes()

    def test_small_ensemble_rejected(self):
        paths = simulate_noise(ou(seed=8), 40 * TAU, n_paths=10)
        with pytest.raises(ValidationError):
            correlation_spectrum(paths)


class TestAmplitudeEnsembles:
    def test_norm_conserved_per_trajectory(self):
        run = perturbative_amplitudes(ou(seed=10), omega_s=1 / TAU, duration=40 * TAU, n_traj=200)
        assert run.norm_defect < 1e-6

    def test_negligible_noise_leaves_populations(self):
        weak = NoiseProcess(NoiseKind.ORNSTEIN_UHLENBECK, variance=1e-6, tau_c=TAU, seed=11)
        run = perturbative_amplitudes(weak, omega_s=0.0, duration=40 * TAU, n_traj=64)
        assert np.abs(run.rho11 - 1.0).max() < 1e-12
        assert np.abs(run.delta_a_mean).max() < 1e-12

    @pytest.mark.parametrize("n_traj", [0, -3])
    def test_empty_ensemble_rejected(self, n_traj):
        with pytest.raises(ValidationError, match="n_traj"):
            perturbative_amplitudes(ou(), 0.0, 40 * TAU, n_traj=n_traj)

    def test_window_violation_rejected(self):
        strong = NoiseProcess(NoiseKind.ORNSTEIN_UHLENBECK, variance=1e26, tau_c=TAU, seed=12)
        with pytest.raises(ValidationError):
            perturbative_amplitudes(strong, 0.0, 40 * TAU, n_traj=16)
        with pytest.raises(ValidationError):
            perturbative_amplitudes(ou(), 0.0, 0.5 * TAU, n_traj=16)

    def test_phase_advances_at_difference_frequency(self):
        omega_s = 1.0 / TAU
        omega0 = 0.35 / TAU
        run = perturbative_amplitudes(
            ou(seed=13), omega_s=omega_s, duration=40 * TAU, n_traj=512, omega0=omega0
        )
        phase = np.unwrap(np.angle(run.rho01))
        slope = np.polyfit(run.times, phase, 1)[0]
        assert slope == pytest.approx(omega0 - 0.5 * omega_s, rel=0.01)

    def test_leak_matches_second_order_prediction(self):
        run = perturbative_amplitudes(ou(seed=14), omega_s=0.0, duration=60 * TAU, n_traj=4000)
        predicted = 2.0 * run.delta_a_mean.real
        # fourth-order corrections are far below the MC error here; compare loosely
        final = predicted[-1]
        assert run.leak[-1] == pytest.approx(final, rel=0.02)

    def test_determinism_of_run(self):
        a = perturbative_amplitudes(ou(seed=15), 0.0, 40 * TAU, n_traj=256)
        b = perturbative_amplitudes(ou(seed=15), 0.0, 40 * TAU, n_traj=256)
        assert np.array_equal(a.rho11, b.rho11)
        assert np.array_equal(a.delta_a_mean, b.delta_a_mean)


#: every PerturbativeRun field that carries a number
RUN_FIELDS = ("delta_a_mean", "rho11", "rho01", "leak", "batch_mean_a1",
              "batch_mean_abs_a1_sq", "norm_defect")


def assert_same_bits(run, expected):
    for name in RUN_FIELDS:
        got, want = np.asarray(getattr(run, name)), np.asarray(getattr(expected, name))
        assert got.tobytes() == want.tobytes(), name


class TestBlockSize:
    """STEP_ROWS sets the working set of the amplitude stepping, never a result bit."""

    #: the per-core L2 that the STEP_ROWS comment sizes a block for
    L2_BUDGET = 2 * 2**20

    @pytest.mark.parametrize("make", [ou, dichotomous], ids=["ou", "dichotomous"])
    @pytest.mark.parametrize("omega_s", [1.0 / TAU, 0.0], ids=["detuned", "resonant"])
    def test_every_block_size_gives_the_same_bits(self, monkeypatch, make, omega_s):
        # CHUNK + 452 paths: one batch straddles the chunk boundary; 400 steps
        # end every block size below on a partial block
        runs = []
        for rows in (1, 7, stochastic.STEP_ROWS, 64):
            monkeypatch.setattr(stochastic, "STEP_ROWS", rows)
            runs.append(perturbative_amplitudes(make(seed=34), omega_s, 20 * TAU, CHUNK + 452,
                                                omega0=0.35 / TAU))
        for run in runs[1:]:
            assert_same_bits(run, runs[0])

    def test_a_chunk_steps_within_the_l2_budget(self):
        # the noise blocks are made inside the traced call and count against the budget
        p = ou(seed=35)
        n_traj, n_batches = 10000, stochastic.N_BATCHES
        draws = draw_chunk(p, 1200, CHUNK, 0, 0)
        phase = np.exp(-1j / TAU * np.arange(1201) * p.dt)
        batch = ((np.arange(n_traj) * n_batches) // n_traj)[:CHUNK]
        v_inner = np.zeros(1201, dtype=complex)
        sum_a1 = np.zeros((1201, n_batches), dtype=complex)
        sum_sq = np.zeros((1201, 2, n_batches))
        peak = traced_peak(lambda: _add_chunk(_noise_blocks(p, draws), 1.0 / TAU, p.dt,
                                              phase, batch, v_inner, sum_a1, sum_sq))
        assert peak <= self.L2_BUDGET, f"peak {peak / 2**20:.2f} MiB"


@pytest.fixture(scope="module")
def two_workers():
    with ProcessPoolExecutor(max_workers=2) as pool:
        yield pool


def reversed_map(fn, items):
    """Run the tasks last to first, and yield their results in order."""
    return reversed([fn(item) for item in reversed(list(items))])


class TestChunkMap:
    """The map that runs the amplitude chunks moves no bit of a result."""

    @pytest.mark.parametrize("make", [ou, dichotomous], ids=["ou", "dichotomous"])
    @pytest.mark.parametrize("omega_s", [1.0 / TAU, 0.0], ids=["detuned", "resonant"])
    def test_a_two_worker_pool_gives_the_same_bits(self, two_workers, make, omega_s):
        # three chunks, the last one partial; a batch straddles each boundary
        args = (make(seed=39), omega_s, 5 * TAU, 2 * CHUNK + 452)
        serial = perturbative_amplitudes(*args, omega0=0.35 / TAU)
        pooled = perturbative_amplitudes(*args, omega0=0.35 / TAU, map=two_workers.map)
        assert_same_bits(pooled, serial)

    @pytest.mark.parametrize("make", [ou, dichotomous], ids=["ou", "dichotomous"])
    def test_chunk_sums_have_the_bits_of_one_set_of_totals(self, make):
        args = (make(seed=42), 1.0 / TAU, 5 * TAU, 2 * CHUNK + 452)
        run = perturbative_amplitudes(*args, omega0=0.35 / TAU)
        expected = reference_shared_totals_amplitudes(*args, omega0=0.35 / TAU)
        for name in RUN_FIELDS:
            got = np.asarray(getattr(run, name)).tobytes()
            assert got == np.asarray(expected[name]).tobytes(), name

    @pytest.mark.parametrize("make", [ou, dichotomous], ids=["ou", "dichotomous"])
    def test_tasks_run_last_to_first_give_the_same_bits(self, make):
        args = (make(seed=40), 1.0 / TAU, 5 * TAU, 2 * CHUNK + 452)
        assert_same_bits(perturbative_amplitudes(*args, map=reversed_map),
                         perturbative_amplitudes(*args))


def traced_peak(run):
    """Peak bytes that tracemalloc sees allocated during run(), above those before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Each Monte Carlo stage holds one path-sized array at most: the noise is drawn
    into it, and its consumers take time-major blocks or path slices of it."""

    SLACK = 2 * 2**20

    @pytest.mark.parametrize("make", [ou, dichotomous], ids=["ou", "dichotomous"])
    def test_amplitudes_hold_one_chunk_of_draws(self, make):
        p, n_steps, n_batches = make(seed=36), 1200, stochastic.N_BATCHES
        perturbative_amplitudes(p, 1.0 / TAU, 20 * TAU, 4)  # first-call imports, untraced
        peak = traced_peak(lambda: perturbative_amplitudes(p, 1.0 / TAU, 60 * TAU, 2 * CHUNK))
        draws = CHUNK * (n_steps + 1) * 8
        sums = (n_steps + 1) * (16 + n_batches * 16 + 2 * n_batches * 8)  # v_inner, sum_a1, sum_sq
        assert peak <= draws + sums + self.SLACK, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("make", [ou, dichotomous], ids=["ou", "dichotomous"])
    def test_simulated_noise_holds_only_its_values(self, make):
        p = make(seed=37)
        simulate_noise(p, 20 * TAU, n_paths=4)  # first-call imports, untraced
        peak = traced_peak(lambda: simulate_noise(p, 60 * TAU, n_paths=2000))
        values = 2000 * 1201 * 8
        assert peak <= values + self.SLACK, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("make", [ou, dichotomous], ids=["ou", "dichotomous"])
    def test_spectrum_works_in_path_slices(self, make):
        paths = simulate_noise(make(seed=38), 60 * TAU, n_paths=2000)
        correlation_spectrum(paths)  # first-call imports, untraced
        peak = traced_peak(lambda: correlation_spectrum(paths))
        assert peak <= 2 * self.SLACK, f"peak {peak / 2**20:.2f} MiB"


class TestRateExtraction:
    def test_zero_frequency_anchor(self):
        run = perturbative_amplitudes(ou(seed=16), 0.0, 60 * TAU, n_traj=4000)
        rates = extract_rates(run)
        assert rates.w11 == pytest.approx(2 * VAR * TAU, rel=0.05)
        assert rates.w11_from_delta_a == pytest.approx(2 * VAR * TAU, rel=0.05)

    def test_lorentzian_suppression_at_resonance_offset(self):
        run0 = perturbative_amplitudes(ou(seed=17), 0.0, 60 * TAU, n_traj=4000)
        run1 = perturbative_amplitudes(ou(seed=17), 1 / TAU, 60 * TAU, n_traj=4000)
        w0 = extract_rates(run0).w11
        w1 = extract_rates(run1).w11
        assert w1 / w0 == pytest.approx(0.5, rel=0.06)

    def test_ratio_half_across_grid(self):
        for process in (ou(seed=18), dichotomous(seed=19)):
            for w_tau in (0.0, 1.0, 3.0):
                run = perturbative_amplitudes(process, w_tau / TAU, 60 * TAU, n_traj=3000)
                rates = extract_rates(run)
                assert abs(rates.ratio - 0.5) <= max(0.05, 2 * rates.ratio_stderr), (
                    process.kind,
                    w_tau,
                )

    @pytest.mark.parametrize("make", [ou, dichotomous], ids=["ou", "dichotomous"])
    @pytest.mark.parametrize("seed", [1, 4, 7])
    def test_bootstrap_bits_match_a_new_array_per_step(self, make, seed):
        run = perturbative_amplitudes(make(seed=seed), 1 / TAU, 60 * TAU, n_traj=400)
        idx = run.times >= 2 * TAU
        got = stochastic._bootstrap_slopes(run, idx)
        for slopes, expected in zip(got, reference_bootstrap_slopes(run, idx)):
            assert slopes.tobytes() == expected.tobytes()

    def test_bootstrap_builds_each_curve_in_place(self):
        # one complex product and its magnitude at a time: three float arrays of
        # the resample shape, against over five when every step made a new one
        run = perturbative_amplitudes(ou(seed=41), 1 / TAU, 60 * TAU, n_traj=400)
        extract_rates(run)  # first-call imports, untraced
        peak = traced_peak(lambda: extract_rates(run))
        window = int(np.count_nonzero(run.times >= 2 * TAU))
        resamples = stochastic.N_BOOTSTRAP * window * 8
        assert peak <= 4.5 * resamples, f"peak {peak / resamples:.2f} resample arrays"

    def test_dephasing_half_of_population_rate(self):
        run = perturbative_amplitudes(ou(seed=20), 1 / TAU, 60 * TAU, n_traj=4000)
        rates = extract_rates(run)
        assert rates.w01 == pytest.approx(0.5 * rates.w11, rel=2 * rates.ratio_stderr + 0.02)


class TestClosedLoop:
    def test_agreement_at_offset_frequency(self):
        report = closed_loop_check(
            ou(seed=22), omega_s=1 / TAU, n_traj=4000, n_spectrum_paths=1500
        )
        assert report.agrees_within_10pct
        assert report.validity.strong_pass

    def test_white_noise_limit(self):
        # omega_s tau_c -> 0: both routes converge to 2 variance tau_c
        report = closed_loop_check(
            ou(seed=23), omega_s=0.0, n_traj=4000, n_spectrum_paths=1500
        )
        target = 2 * VAR * TAU
        assert report.rates.w11 == pytest.approx(target, rel=0.05)
        assert report.w11_assembled == pytest.approx(target, rel=0.05)

    def test_strong_suppression_off_resonance(self):
        process = ou(seed=24)
        run = perturbative_amplitudes(process, 10 / TAU, 60 * TAU, n_traj=6000)
        rates = extract_rates(run)
        assert rates.w11 == pytest.approx(2 * VAR * TAU / 101.0, rel=0.15)


def exact_mean_delta_a(times, omega_s):
    """<da(t)> for K(tau) = VAR exp(-|tau|/TAU), which both noise kinds share."""
    gamma = 1.0 / TAU - 1j * omega_s
    return VAR * (times / gamma - (1.0 - np.exp(-gamma * times)) / gamma**2)


class TestExactExpectation:
    @pytest.mark.parametrize("make", [ou, dichotomous], ids=["ou", "dichotomous"])
    @pytest.mark.parametrize("w_tau", [0.0, 1.0, 3.0])
    def test_mean_delta_a_matches_the_closed_form(self, make, w_tau):
        process, omega_s, n = make(seed=7), w_tau / TAU, 4000
        run = perturbative_amplitudes(process, omega_s, 60 * TAU, n_traj=n)
        paths = simulate_noise(process, 60 * TAU, n_paths=n, stream=0)
        assert np.array_equal(paths.times, run.times)
        per_path = reference_second_order_amplitude(
            paths.values, omega_s, process.dt, paths.times
        )
        stderr = per_path.std(axis=0) / math.sqrt(n)
        # twice the leading bias of the nested trapezoid rule, VAR dt^2 |gamma| t / 12
        bias = VAR * process.dt**2 * abs(1.0 / TAU - 1j * omega_s) * run.times / 6.0
        error = np.abs(run.delta_a_mean - exact_mean_delta_a(run.times, omega_s))
        assert np.all(error <= 5.0 * stderr + bias)


def assert_relatively_close(got, expected, rtol):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    excess = np.abs(got - expected) - rtol * np.abs(expected)
    where = np.unravel_index(excess.argmax(), excess.shape)
    assert excess.max() <= 0.0, f"largest excess {excess.max()} at {where}"


class TestMatchesPathMajorReference:
    """The time-major, path-reduced estimators against whole per-path histories."""

    @pytest.mark.parametrize(
        "make, n_traj",
        [(ou, 300), (dichotomous, 300), (ou, CHUNK + 452), (dichotomous, CHUNK + 452)],
        ids=["ou-300", "dichotomous-300", "ou-2500", "dichotomous-2500"],
    )
    def test_amplitude_ensemble(self, make, n_traj):
        args = (make(seed=30), 1.0 / TAU, 20 * TAU, n_traj)
        run = perturbative_amplitudes(*args, omega0=0.35 / TAU)
        ref = reference_perturbative_amplitudes(*args, omega0=0.35 / TAU)
        assert run.n_batches == ref["n_batches"]
        for name in ("delta_a_mean", "rho11", "rho01", "leak", "batch_mean_a1",
                     "batch_mean_abs_a1_sq", "norm_defect"):
            assert_relatively_close(getattr(run, name), ref[name], 1e-13)

    @pytest.mark.parametrize("make", [ou, dichotomous], ids=["ou", "dichotomous"])
    @pytest.mark.parametrize("n_paths", [300, 1000, CHUNK + 452])
    @pytest.mark.parametrize("slice_bytes", [1, stochastic.SLICE_BYTES], ids=["one-path", "default"])
    def test_correlation_bits_match_one_einsum_per_chunk(self, monkeypatch, make, n_paths,
                                                         slice_bytes):
        # the path floor guards the estimate's statistics, not its arithmetic
        monkeypatch.setattr(stochastic, "MIN_SPECTRUM_PATHS", 1)
        monkeypatch.setattr(stochastic, "SLICE_BYTES", slice_bytes)
        paths = simulate_noise(make(seed=32), 20 * TAU, n_paths=n_paths)
        got = correlation_spectrum(paths).correlation
        assert got.tobytes() == reference_einsum_correlation(paths).tobytes()

    @pytest.mark.parametrize("make", [ou, dichotomous], ids=["ou", "dichotomous"])
    def test_correlation(self, make):
        paths = simulate_noise(make(seed=31), 20 * TAU, n_paths=CHUNK + 452)
        spec = correlation_spectrum(paths)
        ref = reference_correlation(paths.values, spec.lags.size - 1)
        assert np.abs(spec.correlation - ref).max() <= 1e-12 * ref[0]
