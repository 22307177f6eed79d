"""Monte Carlo cross-check of relaxation rates from fluctuating couplings.

A real stationary noise v(t) couples states 1 and 2 of the three-level model
through v(t)(|1><2| + |2><1|). Averaging second-order amplitude corrections

    da(t) = int_0^t dt1 int_0^{t1} dt2  v(t1) v(t2) exp(i w_s (t1 - t2))

over an ensemble of noise realisations gives the population transfer rate as
the slope of 2 Re<da>, while the 0-1 coherence decays at the slope of
Re<da> - half the population rate. Direct numerical integration of the
Schroedinger amplitudes on the same noise paths provides an independent
measurement of both rates, and the estimated noise spectrum closes the loop
against the assembled relaxation supermatrix.

Noise generation is exact (no Euler discretisation bias): the
Ornstein-Uhlenbeck update uses the analytic decay plus Gaussian kick, and the
dichotomous process flips its sign per step with the exact probability of an
odd number of flips in dt. Both share the
correlation function variance * exp(-t / tau_c).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.signal import lfilter

from .bloch_redfield import (
    BathSpec,
    CouplingOperator,
    Tabulated,
    ValidityReport,
    relaxation_supermatrix,
    validity_check,
)
from .errors import NumericalError, ValidationError
from .liouville import OperatorMatrix
from .three_state import SX, THREE_STATE_BASIS, hamiltonian

#: fixed chunk size so that seeding is independent of ensemble size and host
CHUNK = 2048
#: hard ceiling on T * sqrt(<v^2>) for the second-order window
PERTURBATIVE_WINDOW_LIMIT = 0.5
#: trajectory batches behind the bootstrap, and its resample count
N_BATCHES = 200
N_BOOTSTRAP = 400


class NoiseKind(enum.Enum):
    ORNSTEIN_UHLENBECK = "ou"
    DICHOTOMOUS = "dichotomous"


@dataclass(frozen=True)
class NoiseProcess:
    """Stationary zero-mean noise with exponential correlation.

    variance in rad^2/s^2, tau_c and dt in s. The grid step defaults to
    tau_c / 20 and may not be coarser. The seed fully determines every path.
    """

    kind: NoiseKind
    variance: float
    tau_c: float
    seed: int
    dt: Optional[float] = None

    def __post_init__(self):
        if not (self.variance > 0 and math.isfinite(self.variance)):
            raise ValidationError("noise variance must be positive and finite")
        if not (self.tau_c > 0 and math.isfinite(self.tau_c)):
            raise ValidationError("tau_c must be positive and finite")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        dt = self.dt if self.dt is not None else self.tau_c / 20.0
        if not (dt > 0 and math.isfinite(dt)):
            raise ValidationError("dt must be positive and finite")
        if dt > self.tau_c / 20.0 * (1 + 1e-12):
            raise ValidationError("dt must not exceed tau_c / 20")
        object.__setattr__(self, "dt", float(dt))


def _chunk_rng(p: NoiseProcess, stream: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((p.seed, stream, chunk_index)))


def _ou_chunk(p: NoiseProcess, n_steps: int, n_paths: int, rng) -> np.ndarray:
    sigma = math.sqrt(p.variance)
    decay = math.exp(-p.dt / p.tau_c)
    v0 = sigma * rng.standard_normal(n_paths)
    kicks = (sigma * math.sqrt(1.0 - decay * decay)) * rng.standard_normal(
        (n_paths, n_steps)
    )
    tail, _ = lfilter([1.0], [1.0, -decay], kicks, axis=1, zi=(decay * v0)[:, None])
    return np.concatenate([v0[:, None], tail], axis=1)


def _dichotomous_chunk(p: NoiseProcess, n_steps: int, n_paths: int, rng) -> np.ndarray:
    # flip rate 1/(2 tau_c) gives exp(-t/tau_c) correlation; a step flips the
    # sign when it holds an odd number of flips, with probability q
    q = 0.5 * -math.expm1(-p.dt / p.tau_c)
    signs = np.empty((n_paths, n_steps + 1))
    signs[:, 0] = rng.integers(0, 2, n_paths) * 2 - 1
    signs[:, 1:] = np.where(rng.random((n_paths, n_steps)) < q, -1.0, 1.0)
    return math.sqrt(p.variance) * np.cumprod(signs, axis=1)


def _noise_chunk(p: NoiseProcess, n_steps: int, n_paths: int, stream: int, index: int):
    rng = _chunk_rng(p, stream, index)
    if p.kind is NoiseKind.ORNSTEIN_UHLENBECK:
        return _ou_chunk(p, n_steps, n_paths, rng)
    return _dichotomous_chunk(p, n_steps, n_paths, rng)


def _chunk_sizes(n_paths: int):
    sizes = [CHUNK] * (n_paths // CHUNK)
    if n_paths % CHUNK:
        sizes.append(n_paths % CHUNK)
    return sizes


@dataclass(frozen=True)
class NoisePaths:
    """Sampled realisations: values[i, k] = v_i(times[k])."""

    process: NoiseProcess
    times: np.ndarray
    values: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]


def simulate_noise(
    p: NoiseProcess, duration: float, n_paths: int = 1, stream: int = 0
) -> NoisePaths:
    """Draw stationary noise paths on a uniform grid of step p.dt.

    ``duration`` must exceed ten correlation times so that time averages are
    meaningful. ``stream`` separates independent sub-ensembles drawn from the
    same seed (e.g. spectrum estimation vs. amplitude runs).
    """
    if duration <= 10.0 * p.tau_c:
        raise ValidationError("duration must exceed 10 correlation times")
    if n_paths < 1:
        raise ValidationError("n_paths must be at least one")
    n_steps = int(math.ceil(duration / p.dt - 1e-9))
    chunks = [
        _noise_chunk(p, n_steps, size, stream, i)
        for i, size in enumerate(_chunk_sizes(n_paths))
    ]
    return NoisePaths(
        process=p,
        times=np.arange(n_steps + 1) * p.dt,
        values=np.concatenate(chunks, axis=0),
    )


# ---------------------------------------------------------------------------
# correlation function and spectrum estimation
# ---------------------------------------------------------------------------

MIN_SPECTRUM_PATHS = 1000


@dataclass(frozen=True)
class CorrelationSpectrum:
    """Estimated correlation function and its cosine-transform spectrum.

    The spectrum is J(w) = 2 * integral_0^tmax K(t) cos(w t) dt with a plain
    rectangular window out to ``window_t_max`` (documented here because the
    truncation is part of the estimate).
    """

    process: NoiseProcess
    lags: np.ndarray
    correlation: np.ndarray
    window: str
    window_t_max: float

    def spectrum(self, omega):
        w = np.atleast_1d(np.asarray(omega, dtype=float))
        integrand = self.correlation[None, :] * np.cos(np.outer(w, self.lags))
        j = 2.0 * np.trapezoid(integrand, self.lags, axis=1)
        return float(j[0]) if np.isscalar(omega) else j

    def to_tabulated(self, omega_grid) -> Tabulated:
        """Clip estimator noise below zero and wrap as an even tabulated spectrum."""
        grid = np.asarray(omega_grid, dtype=float)
        return Tabulated(grid, np.clip(self.spectrum(grid), 0.0, None))


def correlation_spectrum(paths: NoisePaths) -> CorrelationSpectrum:
    """Estimate K(t) = <v(t) v(0)> across paths and time origins.

    Needs at least 1000 paths for a stable spectral estimate. Lags run to ten
    correlation times and the cosine transform uses a rectangular window over
    that range.
    """
    if paths.n_paths < MIN_SPECTRUM_PATHS:
        raise ValidationError(
            f"spectral estimation needs >= {MIN_SPECTRUM_PATHS} paths, got {paths.n_paths}"
        )
    p = paths.process
    n_steps = paths.times.size - 1
    n_lags = min(int(round(10.0 * p.tau_c / p.dt)), n_steps // 2)
    if n_lags < 2:
        raise ValidationError("paths too short for the requested lag range")
    v = paths.values
    corr = np.empty(n_lags + 1)
    for lag in range(n_lags + 1):
        a = v[:, : n_steps + 1 - lag]
        b = v[:, lag:]
        corr[lag] = float(np.mean(a * b))
    return CorrelationSpectrum(
        process=p,
        lags=paths.times[: n_lags + 1].copy(),
        correlation=corr,
        window="rectangular",
        window_t_max=float(n_lags * p.dt),
    )


# ---------------------------------------------------------------------------
# amplitude ensembles
# ---------------------------------------------------------------------------

def _check_perturbative_window(p: NoiseProcess, duration: float) -> None:
    if duration <= p.tau_c:
        raise ValidationError("duration must exceed the correlation time")
    if duration * math.sqrt(p.variance) >= PERTURBATIVE_WINDOW_LIMIT:
        raise ValidationError(
            "duration violates the second-order window: need "
            f"T * sqrt(variance) < {PERTURBATIVE_WINDOW_LIMIT}"
        )


def _schroedinger_block(v: np.ndarray, omega_s: float, dt: float):
    """Evolve the coupled (1, 2) amplitudes exactly per step.

    The step Hamiltonian is (omega_s/2) sz + vbar sx with vbar the midpoint
    noise value; each step applies the closed-form 2x2 rotation.
    """
    n_paths, n_times = v.shape
    half = 0.5 * omega_s
    vbar = 0.5 * (v[:, :-1] + v[:, 1:])
    r = np.sqrt(half * half + vbar * vbar)
    phi = r * dt
    cos_phi = np.cos(phi)
    sinc = np.where(r > 0, np.sin(phi) / np.where(r > 0, r, 1.0), dt)
    a1 = np.full(n_paths, 1.0 / math.sqrt(2.0), dtype=complex)
    a2 = np.zeros(n_paths, dtype=complex)
    out1 = np.empty((n_paths, n_times), dtype=complex)
    out2 = np.empty((n_paths, n_times), dtype=complex)
    out1[:, 0] = a1
    out2[:, 0] = a2
    for k in range(n_times - 1):
        c = cos_phi[:, k]
        s = sinc[:, k]
        vk = vbar[:, k]
        new1 = (c - 1j * s * half) * a1 - 1j * s * vk * a2
        new2 = -1j * s * vk * a1 + (c + 1j * s * half) * a2
        a1, a2 = new1, new2
        out1[:, k + 1] = a1
        out2[:, k + 1] = a2
    return out1, out2


def _second_order_amplitude(v: np.ndarray, omega_s: float, dt: float, times: np.ndarray):
    """Per-path da(t) by nested cumulative (trapezoid) integrals."""
    phase = np.exp(-1j * omega_s * times)[None, :]
    inner = cumulative_trapezoid(v * phase, dx=dt, initial=0.0, axis=1)
    outer = v * np.conj(phase) * inner
    return cumulative_trapezoid(outer, dx=dt, initial=0.0, axis=1)


@dataclass(frozen=True)
class PerturbativeRun:
    """Ensemble averages of the second-order and directly integrated dynamics.

    ``rho11`` and ``rho01`` are normalised to their initial values, so they
    start at 1; ``leak`` is the population transferred to state 2 on the same
    scale. Per-batch means support bootstrap error bars downstream.
    """

    process: NoiseProcess
    times: np.ndarray
    delta_a_mean: np.ndarray
    rho11: np.ndarray
    rho01: np.ndarray
    leak: np.ndarray
    norm_defect: float
    n_batches: int
    batch_mean_a1: np.ndarray = field(repr=False)
    batch_mean_abs_a1_sq: np.ndarray = field(repr=False)


def perturbative_amplitudes(
    p: NoiseProcess,
    omega_s: float,
    duration: float,
    n_traj: int,
    omega0: float = 0.0,
) -> PerturbativeRun:
    """Run the trajectory ensemble and average amplitudes and da(t).

    Processes the ensemble in fixed-size chunks so memory stays flat and the
    result is bit-identical for a given seed regardless of ensemble splitting.
    Draws noise stream 0, in min(N_BATCHES, n_traj) batches of trajectories.
    """
    _check_perturbative_window(p, duration)
    n_batches = max(1, min(N_BATCHES, n_traj))
    n_steps = int(math.ceil(duration / p.dt - 1e-9))
    times = np.arange(n_steps + 1) * p.dt
    nt = n_steps + 1
    sum_a1 = np.zeros((n_batches, nt), dtype=complex)
    sum_abs_a1 = np.zeros((n_batches, nt))
    sum_abs_a2 = np.zeros((n_batches, nt))
    sum_delta = np.zeros((n_batches, nt), dtype=complex)
    counts = np.zeros(n_batches, dtype=np.int64)
    norm_defect = 0.0
    offset = 0
    for i, size in enumerate(_chunk_sizes(n_traj)):
        v = _noise_chunk(p, n_steps, size, 0, i)
        delta = _second_order_amplitude(v, omega_s, p.dt, times)
        a1, a2 = _schroedinger_block(v, omega_s, p.dt)
        norms = np.abs(a1) ** 2 + np.abs(a2) ** 2 + 0.5
        norm_defect = max(norm_defect, float(np.abs(norms - 1.0).max()))
        batch = (np.arange(offset, offset + size) * n_batches) // n_traj
        for b in np.unique(batch):
            rows = batch == b
            sum_a1[b] += a1[rows].sum(axis=0)
            sum_abs_a1[b] += (np.abs(a1[rows]) ** 2).sum(axis=0)
            sum_abs_a2[b] += (np.abs(a2[rows]) ** 2).sum(axis=0)
            sum_delta[b] += delta[rows].sum(axis=0)
            counts[b] += rows.sum()
        offset += size
    a0 = (1.0 / math.sqrt(2.0)) * np.exp(-1j * omega0 * times)
    mean_a1 = sum_a1.sum(axis=0) / n_traj
    return PerturbativeRun(
        process=p,
        times=times,
        delta_a_mean=sum_delta.sum(axis=0) / n_traj,
        rho11=sum_abs_a1.sum(axis=0) / n_traj / 0.5,
        rho01=np.conj(a0) * mean_a1 / 0.5,
        leak=sum_abs_a2.sum(axis=0) / n_traj / 0.5,
        norm_defect=norm_defect,
        n_batches=n_batches,
        batch_mean_a1=sum_a1 / counts[:, None],
        batch_mean_abs_a1_sq=sum_abs_a1 / counts[:, None],
    )


# ---------------------------------------------------------------------------
# rate extraction
# ---------------------------------------------------------------------------

def _slope(t: np.ndarray, y: np.ndarray):
    """Least-squares slope of y against t; one per row when y is 2-D."""
    tc = t - t.mean()
    return (y @ tc) / (tc @ tc)


@dataclass(frozen=True)
class RateExtraction:
    """Fitted transfer and dephasing rates with bootstrap errors (s^-1)."""

    w11: float
    w11_stderr: float
    w01: float
    w01_stderr: float
    ratio: float
    ratio_stderr: float
    ratio_ci95: tuple
    window: tuple
    w11_from_delta_a: float


def extract_rates(run: PerturbativeRun) -> RateExtraction:
    """Least-squares slopes over the automatically selected linear window.

    The window starts at two correlation times (past the initial transient)
    and ends at min(T, 0.2 / w11-estimate) so the decays stay deep in the
    linear regime; a first pass over the whole grid gives the estimate, which
    is then refined twice. Errors come from a bootstrap over trajectory
    batches (N_BOOTSTRAP resamples).
    """
    t = run.times
    tau_c = run.process.tau_c

    def window(w_guess: float) -> np.ndarray:
        hi = t[-1] if w_guess <= 0 else min(t[-1], 0.2 / w_guess)
        idx = (t >= 2.0 * tau_c) & (t <= hi)
        if idx.sum() < 8:
            raise NumericalError("no linear-growth window on this time grid")
        return idx

    growth = 2.0 * run.delta_a_mean.real
    w_guess = 0.0
    for _ in range(3):
        idx = window(w_guess)
        w_guess = _slope(t[idx], growth[idx])
        if w_guess <= 0:
            raise NumericalError("ensemble average shows no linear growth")
    tw = t[idx]

    w11 = float(_slope(tw, -np.log(run.rho11[idx])))
    w01 = float(_slope(tw, -np.log(np.abs(run.rho01[idx]))))
    w11_delta = float(_slope(tw, growth[idx]))

    rng = np.random.default_rng(np.random.SeedSequence((run.process.seed, 0xB007)))
    b = run.n_batches
    picks = rng.integers(0, b, size=(N_BOOTSTRAP, b))
    weights = np.zeros((N_BOOTSTRAP, b))
    for r in range(N_BOOTSTRAP):
        weights[r] = np.bincount(picks[r], minlength=b)
    weights /= b

    rho11_rs = (weights @ run.batch_mean_abs_a1_sq[:, idx]) / 0.5
    mean_a1_rs = weights @ run.batch_mean_a1[:, idx]
    abs_rho01_rs = np.abs(mean_a1_rs) * math.sqrt(2.0)
    w11_rs = _slope(tw, -np.log(rho11_rs))
    w01_rs = _slope(tw, -np.log(abs_rho01_rs))
    ratio_rs = w01_rs / w11_rs

    return RateExtraction(
        w11=w11,
        w11_stderr=float(np.std(w11_rs)),
        w01=w01,
        w01_stderr=float(np.std(w01_rs)),
        ratio=w01 / w11,
        ratio_stderr=float(np.std(ratio_rs)),
        ratio_ci95=(
            float(np.percentile(ratio_rs, 2.5)),
            float(np.percentile(ratio_rs, 97.5)),
        ),
        window=(float(tw[0]), float(tw[-1])),
        w11_from_delta_a=w11_delta,
    )


# ---------------------------------------------------------------------------
# closed loop against the assembled supermatrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedLoopReport:
    """Monte Carlo rates against the supermatrix built from the measured spectrum."""

    rates: RateExtraction
    w11_assembled: float
    relative_difference: float
    agrees_within_10pct: bool
    validity: ValidityReport
    run: PerturbativeRun = field(repr=False)


def closed_loop_duration(p: NoiseProcess, duration: Optional[float]) -> float:
    """The closed loop's run time, ``duration`` or else 60 correlation times,
    checked against the second-order window."""
    duration = duration if duration is not None else 60.0 * p.tau_c
    _check_perturbative_window(p, duration)
    return duration


def closed_loop_check(
    p: NoiseProcess,
    omega_s: float,
    omega0: float = 0.0,
    duration: Optional[float] = None,
    n_traj: int = 10000,
    n_spectrum_paths: int = 2000,
) -> ClosedLoopReport:
    """Measure J(w) and the MC rates from the same process and compare.

    The estimated spectrum feeds a single-coupling bath at beta = 0 (classical
    noise carries no thermal asymmetry) whose assembled supermatrix yields the
    population transfer rate; agreement with the trajectory slope within 10%
    closes the loop.
    """
    duration = closed_loop_duration(p, duration)
    run = perturbative_amplitudes(p, omega_s, duration, n_traj, omega0=omega0)
    rates = extract_rates(run)
    corr_paths = simulate_noise(
        p, max(duration, 60.0 * p.tau_c), n_paths=n_spectrum_paths, stream=1
    )
    spectrum = correlation_spectrum(corr_paths)
    grid_top = max(3.0 * abs(omega_s), 6.0 / p.tau_c)
    tabulated = spectrum.to_tabulated(np.linspace(0.0, grid_top, 601))
    coupling = CouplingOperator("v", OperatorMatrix(THREE_STATE_BASIS, SX), 0)
    bath = BathSpec.uncorrelated([coupling], [tabulated], beta=0.0)
    r = relaxation_supermatrix(bath, hamiltonian(omega0, omega_s))
    w11_assembled = -float(np.diagonal(r.matrix)[THREE_STATE_BASIS.vec_index("1", "1")].real)
    rel = abs(w11_assembled - rates.w11) / rates.w11
    return ClosedLoopReport(
        rates=rates,
        w11_assembled=w11_assembled,
        relative_difference=rel,
        agrees_within_10pct=rel <= 0.1,
        validity=validity_check(r, p.tau_c),
        run=run,
    )
