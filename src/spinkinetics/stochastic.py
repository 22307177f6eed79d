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
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._blas import one_thread
from .bloch_redfield import (
    BathSpec,
    CouplingOperator,
    Tabulated,
    ValidityReport,
    relaxation_supermatrix,
    validity_check,
)
from .errors import NumericalError, ValidationError, checked
from .liouville import OperatorMatrix
from .three_state import SX, THREE_STATE_BASIS, hamiltonian

#: fixed chunk size so that seeding is independent of ensemble size and host
CHUNK = 2048
#: time rows per noise block and between reductions; sets the working set, not
#: the result. Sized for a 2 MiB per-core L2: over CHUNK paths, one block's
#: arrays (the noise block, amp, e, g, sq and the trapezoid temporaries) peak at
#: 1.74 MiB at 8 rows, against 27 MiB at 64 rows, which spill to memory; 4 and
#: 16 rows ran no faster
STEP_ROWS = 8
#: bytes of path-major scratch per path slice, when drawing noise or taking its FFT
SLICE_BYTES = 2**19
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
        checked("noise variance", self.variance, 0, strict=True)
        checked("tau_c", self.tau_c, 0, strict=True)
        checked("seed", self.seed, 0)
        dt = checked("dt", self.dt if self.dt is not None else self.tau_c / 20.0, 0, strict=True)
        if dt > self.tau_c / 20.0 * (1 + 1e-12):
            raise ValidationError("dt must not exceed tau_c / 20")
        object.__setattr__(self, "dt", float(dt))


def _draw_chunk(p: NoiseProcess, out: np.ndarray, stream: int, index: int):
    """Draw one chunk into the path-major ``out`` of shape (n_paths, n_steps + 1).

    Column 0 is the stationary start v(0); the other columns are the scaled
    Ornstein-Uhlenbeck kicks, or the +-1 telegraph flips. The kicks and flips
    are drawn in path slices: the random generator fills path after path, so slices
    give the same bytes as one (n_paths, n_steps) draw. ``_noise_blocks`` turns
    the draws into paths."""
    rng = np.random.default_rng(np.random.SeedSequence((p.seed, stream, index)))
    sigma = math.sqrt(p.variance)
    n_paths, n_steps = out.shape[0], out.shape[1] - 1
    if p.kind is NoiseKind.ORNSTEIN_UHLENBECK:
        out[:, 0] = sigma * rng.standard_normal(n_paths)
        decay = math.exp(-p.dt / p.tau_c)
        scale = sigma * math.sqrt(1.0 - decay * decay)
        for rows in _path_slices(n_paths, 8 * n_steps):
            np.multiply(rng.standard_normal((rows.stop - rows.start, n_steps)), scale,
                        out=out[rows, 1:])
    else:
        # flip rate 1/(2 tau_c) gives exp(-t/tau_c) correlation; a step flips the
        # sign when it holds an odd number of flips, with probability q
        q = 0.5 * -math.expm1(-p.dt / p.tau_c)
        out[:, 0] = sigma * (rng.integers(0, 2, n_paths) * 2 - 1)
        for rows in _path_slices(n_paths, 8 * n_steps):
            out[rows, 1:] = np.where(rng.random((rows.stop - rows.start, n_steps)) < q, -1.0, 1.0)


def _noise_blocks(p: NoiseProcess, draws: np.ndarray):
    """Yield (k0, w), w[j, i] = v_i(t_{k0 + j}) for j = 0..m and m <= STEP_ROWS,
    from the path-major ``draws`` of ``_draw_chunk``: time-major blocks that
    overlap by one row. The exact update carries across blocks, for
    Ornstein-Uhlenbeck paths v[k + 1] = kick[k] + decay v[k] (Gillespie,
    Phys. Rev. E 54, 2084 (1996)) and for telegraph paths v[k + 1] = flip[k] v[k].
    One buffer holds every block: use each before asking for the next."""
    n_paths, n_times = draws.shape
    ou = p.kind is NoiseKind.ORNSTEIN_UHLENBECK
    decay = math.exp(-p.dt / p.tau_c)
    buf = np.empty((STEP_ROWS + 1, n_paths))
    buf[0] = draws[:, 0]
    for k0 in range(0, n_times - 1, STEP_ROWS):
        w = buf[: min(STEP_ROWS, n_times - 1 - k0) + 1]
        w[1:] = draws[:, k0 + 1 : k0 + w.shape[0]].T
        for j in range(w.shape[0] - 1):
            if ou:
                w[j + 1] += decay * w[j]
            else:
                w[j + 1] *= w[j]
        yield k0, w
        buf[0] = w[-1]


def _path_slices(n_paths: int, row_bytes: int):
    step = max(1, SLICE_BYTES // row_bytes)
    return [slice(start, min(start + step, n_paths)) for start in range(0, n_paths, step)]


def _chunk_sizes(n_paths: int):
    return [min(CHUNK, n_paths - start) for start in range(0, n_paths, CHUNK)]


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
    same seed (e.g. spectrum estimation vs. amplitude runs). Each chunk is
    drawn straight into ``values`` and its paths written back in place, block
    by block, so no second path-sized array is made.
    """
    checked("duration", duration, 10.0 * p.tau_c, strict=True)
    checked("n_paths", n_paths, 1)
    checked("stream", stream, 0)
    n_steps = int(math.ceil(duration / p.dt - 1e-9))
    values = np.empty((n_paths, n_steps + 1))
    for i, size in enumerate(_chunk_sizes(n_paths)):
        chunk = values[i * CHUNK : i * CHUNK + size]
        _draw_chunk(p, chunk, stream, i)
        for k0, w in _noise_blocks(p, chunk):
            chunk[:, k0 + 1 : k0 + w.shape[0]] = w[1:].T
    return NoisePaths(p, np.arange(n_steps + 1) * p.dt, values)


# ---------------------------------------------------------------------------
# correlation function and spectrum estimation
# ---------------------------------------------------------------------------

MIN_SPECTRUM_PATHS = 1000


@dataclass(frozen=True)
class CorrelationSpectrum:
    """Estimated correlation function and its cosine-transform spectrum.

    ``correlation`` is the FFT estimate of K at ``lags``, each lag normalised by
    its overlap count. The spectrum is J(w) = 2 * integral_0^tmax K(t) cos(w t) dt
    with a plain rectangular window out to ``window_t_max`` (documented here
    because the truncation is part of the estimate).
    """

    process: NoiseProcess
    lags: np.ndarray
    correlation: np.ndarray
    window: str
    window_t_max: float

    def spectrum(self, omega):
        w = np.asarray(omega, dtype=float)
        integrand = self.correlation * np.cos(np.multiply.outer(w, self.lags))
        return 2.0 * np.trapezoid(integrand, self.lags, axis=-1)

    def to_tabulated(self, omega_grid) -> Tabulated:
        """Clip estimator noise below zero and wrap as an even tabulated spectrum."""
        grid = np.asarray(omega_grid, dtype=float)
        return Tabulated(grid, np.clip(self.spectrum(grid), 0.0, None))


def correlation_spectrum(paths: NoisePaths) -> CorrelationSpectrum:
    """Estimate K(t) = <v(t) v(0)> across paths and time origins.

    Needs at least 1000 paths for a stable spectral estimate. Lags run to ten
    correlation times and the cosine transform uses a rectangular window over
    that range. K at each lag is the sum of v(s) v(s + lag) over paths and
    origins, taken from the zero-padded FFT power spectrum (Wiener-Khinchin),
    divided by its overlap count n_paths (n - lag). The FFT runs on path slices;
    within each CHUNK of paths the power adds path after path, the order of one
    einsum over the chunk, so the slice size moves no bit.
    """
    checked("paths.n_paths", paths.n_paths, MIN_SPECTRUM_PATHS)
    p = paths.process
    n = paths.times.size
    n_lags = min(int(round(10.0 * p.tau_c / p.dt)), (n - 1) // 2)
    if n_lags < 2:
        raise ValidationError("paths too short for the requested lag range")
    # padding to n + n_lags keeps the circular products of the FFT off every lag read
    size = 1 << (n + n_lags - 1).bit_length()
    power = np.zeros(size // 2 + 1)
    for start in range(0, paths.n_paths, CHUNK):
        chunk = paths.values[start : start + CHUNK]
        part = np.zeros_like(power)
        for rows in _path_slices(chunk.shape[0], 16 * power.size):
            f = np.fft.rfft(chunk[rows], n=size, axis=1)
            q = f.real * f.real
            q += f.imag * f.imag
            q[0] += part
            part = q.sum(axis=0)
        power += part
    lagged = np.fft.irfft(power, n=size)[: n_lags + 1]
    return CorrelationSpectrum(
        process=p,
        lags=paths.times[: n_lags + 1].copy(),
        correlation=lagged / (paths.n_paths * (n - np.arange(n_lags + 1))),
        window="rectangular",
        window_t_max=float(n_lags * p.dt),
    )


# ---------------------------------------------------------------------------
# amplitude ensembles
# ---------------------------------------------------------------------------

def _check_perturbative_window(p: NoiseProcess, duration: float) -> None:
    checked("duration", duration, p.tau_c, strict=True)
    if duration * math.sqrt(p.variance) >= PERTURBATIVE_WINDOW_LIMIT:
        raise ValidationError(
            "duration violates the second-order window: need "
            f"T * sqrt(variance) < {PERTURBATIVE_WINDOW_LIMIT}"
        )


def _step_rotations(w: np.ndarray, half: float, dt: float):
    """Exact steps of H = half sz + vbar sx, half = omega_s / 2 and vbar the midpoint
    of the time-major noise rows ``w``: exp(-i H dt) has the diagonal e = cos -+ i sinc
    half and the off-diagonal g = -i sinc vbar, sinc = sin(r dt) / r, r = |(half, vbar)|."""
    vbar = 0.5 * (w[:-1] + w[1:])
    r = np.sqrt(half * half + vbar * vbar)
    phi = r * dt
    if half * half > 0:  # then r > 0 everywhere
        sinc = np.sin(phi) / r
    else:
        sinc = np.where(r > 0, np.sin(phi) / np.where(r > 0, r, 1.0), dt)
    del r  # each temporary is freed once used, for the block's working set
    e = np.empty((vbar.shape[0], 2, vbar.shape[1]), dtype=complex)
    np.cos(phi, out=e.real[:, 0])
    del phi
    e.real[:, 1] = e.real[:, 0]
    np.multiply(sinc, half, out=e.imag[:, 1])
    np.negative(e.imag[:, 1], out=e.imag[:, 0])
    sinc *= vbar
    del vbar
    return e, -1j * sinc


def _add_trapezoid(w: np.ndarray, phase: np.ndarray, inner: np.ndarray, v_inner: np.ndarray):
    """Add per row of ``w[1:]`` the path sum of v inner into ``v_inner``, inner the
    cumulative trapezoid of v phase (in units of dt / 2) carried in from ``inner``.
    Returns the carry for the next block."""
    y = w * phase[:, None]
    steps = y[1:] + y[:-1]
    steps[0] += inner
    for j in range(1, steps.shape[0]):  # row by row: faster than cumsum across rows
        steps[j] += steps[j - 1]
    v_inner += np.einsum("kj,kj->k", w[1:], steps)
    return steps[-1].copy()


def _add_chunk(blocks, omega_s: float, dt: float, phase, batch, v_inner, sum_a1, sum_sq):
    """Step one chunk of ``_noise_blocks`` time-major blocks, from
    (a1, a2) = (1/sqrt 2, 0). Adds per time the path sum of v inner (the cumulative
    trapezoid of v phase, in units of dt / 2) into ``v_inner``, and the sums of a1
    and (|a1|^2, |a2|^2) over each batch of paths into ``sum_a1`` and ``sum_sq``.
    Returns the largest | |a1|^2 + |a2|^2 + 1/2 - 1 |.

    The block size sets the working set, not the result: every sum runs per time
    row or per batch of paths, and the trapezoid carry adds row by row across
    block boundaries, so any STEP_ROWS gives the same bits."""
    n = batch.size
    starts = np.flatnonzero(np.diff(batch, prepend=-1))
    cols = batch[starts]
    amp = np.zeros((STEP_ROWS + 1, 2, n), dtype=complex)  # rows of (a1, a2)
    amp[0, 0] = 1.0 / math.sqrt(2.0)
    inner = np.zeros(n, dtype=complex)
    norm_defect = 0.0
    for k0, w in blocks:
        m = w.shape[0] - 1
        inner = _add_trapezoid(w, phase[k0 : k0 + m + 1], inner, v_inner[k0 + 1 : k0 + m + 1])
        e, g = _step_rotations(w, 0.5 * omega_s, dt)
        for j in range(m):
            np.multiply(g[j], amp[j, ::-1], out=amp[j + 1])
            amp[j + 1] += e[j] * amp[j]
        del e, g  # freed before sq is built
        lo = 1 if k0 else 0  # the first block also sums time 0
        rows = slice(k0 + lo, k0 + m + 1)
        sq = np.abs(amp[lo : m + 1]) ** 2
        norm_defect = max(norm_defect, float(np.abs(sq[:, 0] + sq[:, 1] + 0.5 - 1.0).max()))
        sum_a1[rows][:, cols] += np.add.reduceat(amp[lo : m + 1, 0], starts, axis=1)
        sum_sq[rows][:, :, cols] += np.add.reduceat(sq, starts, axis=2)
        del sq  # freed before the next block's arrays are built
        amp[0] = amp[m]
    return norm_defect


def _chunk_sums(p: NoiseProcess, omega_s: float, phase: np.ndarray, n_traj: int,
                n_batches: int, index: int):
    """Draw chunk ``index`` of noise stream 0 and step it with ``_add_chunk`` into
    zeroed sums of its own: (b0, v_inner, sum_a1, sum_sq, norm defect), with the
    batch sums over the chunk's own batches b0, b0 + 1, ... The task that
    ``perturbative_amplitudes`` maps over the chunks."""
    start = index * CHUNK
    batch = (np.arange(start, min(start + CHUNK, n_traj)) * n_batches) // n_traj
    b0 = int(batch[0])
    width = int(batch[-1]) - b0 + 1
    v_inner = np.zeros(phase.size, dtype=complex)
    sum_a1 = np.zeros((phase.size, width), dtype=complex)
    sum_sq = np.zeros((phase.size, 2, width))
    draws = np.empty((batch.size, phase.size))
    _draw_chunk(p, draws, 0, index)
    defect = _add_chunk(_noise_blocks(p, draws), omega_s, p.dt, phase, batch - b0,
                        v_inner, sum_a1, sum_sq)
    return b0, v_inner, sum_a1, sum_sq, defect


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
    map=map,
) -> PerturbativeRun:
    """Run the trajectory ensemble and average amplitudes and da(t).

    Processes the ensemble in fixed-size chunks so memory stays flat and the
    result is bit-identical for a given seed regardless of ensemble splitting.
    Draws noise stream 0, in min(N_BATCHES, n_traj) batches of trajectories.
    Each chunk's draws are the one path-sized array: its paths come out of them
    in time-major blocks, stepped and summed over paths as they go (no per-path
    history). The trapezoid rule is linear, so the reduced da runs its
    outer integral once, over the path sum of v conj(phase) inner.

    ``map`` runs ``_chunk_sums`` over the chunk indices and yields the results
    in chunk order: the builtin map, or a process pool's. Each chunk is seeded
    on its own and summed into zeros, and the results are added into the totals
    in chunk order, so every cell gets the same additions in the same order
    whatever the map: the result does not depend on it, bit for bit.
    """
    checked("n_traj", n_traj, 1)
    checked("omega_s", omega_s)
    checked("omega0", omega0)
    _check_perturbative_window(p, duration)
    n_batches = max(1, min(N_BATCHES, n_traj))
    n_steps = int(math.ceil(duration / p.dt - 1e-9))
    times = np.arange(n_steps + 1) * p.dt
    phase = np.exp(-1j * omega_s * times)
    task = functools.partial(_chunk_sums, p, omega_s, phase, n_traj, n_batches)
    # a chunk's sums span its own batches, so together they are no larger than
    # the totals: kept until the last chunk is stepped, they add no path-sized
    # array. They are copied because a pool unpickles each result on a thread of
    # its own, whose malloc arena the rest of the run would not reuse
    parts = []
    for b0, v, a1, sq, defect in map(task, range(len(_chunk_sizes(n_traj)))):
        parts.append((b0, v, a1.copy(), sq.copy(), defect))
        del a1, sq  # freed before the next chunk is stepped
    v_inner = np.zeros(n_steps + 1, dtype=complex)
    sum_a1 = np.zeros((n_steps + 1, n_batches), dtype=complex)
    sum_sq = np.zeros((n_steps + 1, 2, n_batches))
    norm_defect = 0.0
    for b0, v, a1, sq, defect in parts:
        v_inner += v
        sum_a1[:, b0 : b0 + a1.shape[1]] += a1
        sum_sq[:, :, b0 : b0 + sq.shape[2]] += sq
        norm_defect = max(norm_defect, defect)
    del parts
    outer = np.conj(phase) * v_inner * (0.5 * p.dt)
    delta_a = np.concatenate([[0.0], np.cumsum(p.dt * (outer[1:] + outer[:-1]) / 2.0)])
    batch = (np.arange(n_traj) * n_batches) // n_traj
    counts = np.bincount(batch, minlength=n_batches)
    a0 = (1.0 / math.sqrt(2.0)) * np.exp(-1j * omega0 * times)
    mean_sq = sum_sq.sum(axis=2) / n_traj / 0.5
    return PerturbativeRun(
        process=p,
        times=times,
        delta_a_mean=delta_a / n_traj,
        rho11=mean_sq[:, 0],
        rho01=np.conj(a0) * (sum_a1.sum(axis=1) / n_traj) / 0.5,
        leak=mean_sq[:, 1],
        norm_defect=norm_defect,
        n_batches=n_batches,
        batch_mean_a1=(sum_a1 / counts).T,
        batch_mean_abs_a1_sq=(sum_sq[:, 0] / counts).T,
    )


# ---------------------------------------------------------------------------
# rate extraction
# ---------------------------------------------------------------------------

def _slope(t: np.ndarray, y: np.ndarray):
    """Least-squares slope of y against t; one per row when y is 2-D."""
    tc = t - t.mean()
    return (y @ tc) / (tc @ tc)


def _neg_log_slope(t: np.ndarray, y: np.ndarray):
    """The slope of -log(y) against t, one per row; overwrites ``y``."""
    np.log(y, out=y)
    np.negative(y, out=y)
    return _slope(t, y)


def _bootstrap_slopes(run: PerturbativeRun, idx: np.ndarray):
    """(w11, w01) slopes of N_BOOTSTRAP resamples of the trajectory batches over
    the times ``idx``. Each resample's curve is built in one array, in place: the
    complex mean of a1 is freed once its magnitude is taken. The products run on
    one BLAS thread, whose bits do not follow the host's CPU count."""
    rng = np.random.default_rng(np.random.SeedSequence((run.process.seed, 0xB007)))
    b = run.n_batches
    picks = rng.integers(0, b, size=(N_BOOTSTRAP, b))
    picks += b * np.arange(N_BOOTSTRAP)[:, None]  # resample r counts in row r
    weights = np.bincount(picks.ravel(), minlength=N_BOOTSTRAP * b).reshape(N_BOOTSTRAP, b) / b
    tw = run.times[idx]

    with one_thread():
        rho11_rs = weights @ run.batch_mean_abs_a1_sq[:, idx]
        rho11_rs /= 0.5
        w11_rs = _neg_log_slope(tw, rho11_rs)
        del rho11_rs
        mean_a1_rs = weights @ run.batch_mean_a1[:, idx]
        abs_rho01_rs = np.abs(mean_a1_rs)
        del mean_a1_rs
        abs_rho01_rs *= math.sqrt(2.0)
        return w11_rs, _neg_log_slope(tw, abs_rho01_rs)


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

    w11_rs, w01_rs = _bootstrap_slopes(run, idx)
    ratio_rs = w01_rs / w11_rs

    return RateExtraction(
        w11=w11,
        w11_stderr=float(np.std(w11_rs)),
        w01=w01,
        w01_stderr=float(np.std(w01_rs)),
        ratio=w01 / w11,
        ratio_stderr=float(np.std(ratio_rs)),
        ratio_ci95=tuple(float(q) for q in np.percentile(ratio_rs, [2.5, 97.5])),
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
    map=map,
) -> ClosedLoopReport:
    """Measure J(w) and the MC rates from the same process and compare.

    The estimated spectrum feeds a single-coupling bath at beta = 0 (classical
    noise carries no thermal asymmetry) whose assembled supermatrix yields the
    population transfer rate; agreement with the trajectory slope within 10%
    closes the loop.

    The spectrum is computed first and its paths dropped before the amplitude
    chunks start, so a process pool behind ``map`` forks from a small parent.
    Each stage draws its own seeded stream, so the order moves no bit, and
    neither does ``map`` (see ``perturbative_amplitudes``).
    """
    duration = closed_loop_duration(p, duration)
    corr_paths = simulate_noise(
        p, max(duration, 60.0 * p.tau_c), n_paths=n_spectrum_paths, stream=1
    )
    spectrum = correlation_spectrum(corr_paths)
    del corr_paths
    run = perturbative_amplitudes(p, omega_s, duration, n_traj, omega0=omega0, map=map)
    rates = extract_rates(run)
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
