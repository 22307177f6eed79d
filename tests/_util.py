"""Shared helpers for the test suite."""

import csv
import io
import json
import math

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.linalg import expm as reference_expm
from scipy.signal import lfilter

from spinkinetics import NumericalError, ValidationError, bloch_redfield, liouville, stochastic
from spinkinetics._blas import one_thread


def random_hermitian(n, rng, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (a + a.conj().T)
    return scale * h / np.linalg.norm(h)


def random_density(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_state(n, rng):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def hermiticity_defect_sample(superop):
    """Largest |(L rho)^dag - L(rho^dag)| over four seeded random unit-norm matrices."""
    rng = np.random.default_rng(7)
    n = superop.dim
    worst = 0.0
    for _ in range(4):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a /= np.linalg.norm(a)
        lhs = superop.apply(a).conj().T
        rhs = superop.apply(a.conj().T)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def reference_expm_steps(generator, v0, times):
    """exp(generator t_k) v0 stepped time to time, one matrix exponential per
    step length as printed to 15 significant digits (a zero step included):
    the stepper that liouville._expm_steps replaced."""
    out = np.empty((times.size, v0.size), dtype=complex)
    cache = {}
    v, prev = v0, 0.0
    for k, tk in enumerate(times):
        key = f"{tk - prev:.15g}"
        if key not in cache:
            cache[key] = reference_expm(generator * (tk - prev))
        v = out[k] = cache[key] @ v
        prev = tk
    return out


def reference_matmul_expm_steps(generator, v0, times):
    """liouville._expm_steps as it stepped before: ``tk - prev`` on numpy
    scalars and ``v = step @ v`` into a new vector each step, one matrix
    exponential per step length within STEP_RTOL. The bytes the stepper must
    keep."""
    out = np.empty((times.size, v0.size), dtype=complex)
    v, prev = v0, 0.0
    step, length = None, 0.0
    for k, tk in enumerate(times):
        dt = tk - prev
        if dt != 0.0:
            if abs(dt - length) > liouville.STEP_RTOL * length:
                with np.errstate(over="ignore", invalid="ignore"):
                    scaled = generator * dt
                step, length = liouville.expm(scaled), dt
            v = step @ v
        out[k] = v
        prev = tk
    return out


def reference_rk_propagate(l, rho0, times):
    """liouville.propagate by adaptive explicit Runge-Kutta (DOP853) instead of
    matrix exponentials, ending in the same batched state check."""
    t = liouville._validated_times(times)
    n = l.dim
    m = l.matrix
    sol = solve_ivp(
        lambda _t, y: m @ y,
        (0.0, float(t[-1])),
        liouville.vectorize(rho0.entries),
        t_eval=t,
        method="DOP853",
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise NumericalError(f"Runge-Kutta integration failed: {sol.message}")
    states = liouville._density_stack(sol.y.T.reshape(t.size, n, n), t)
    return liouville.Propagation(l.basis, t, states)


def reference_vec_of_coordinates(x, n):
    """liouville._real_coordinates inverted as propagate and
    infinite_time_integral inverted it before, ahead of Hermitising: the stack
    whose Hermitisation liouville._coordinate_states must reproduce bit for bit."""
    upper, lower, _ = liouville._pairs(n)
    v = x.astype(complex)
    v.real[..., lower] = x[..., upper]
    v.imag[..., upper] = x[..., lower]
    v.imag[..., lower] = -x[..., lower]
    return v


def reference_eigvalsh_density_stack(stack, times=None):
    """liouville._density_stack as it checked positivity before: ``eigvalsh``
    of every Hermitised slice. The bytes and errors the Cholesky check must
    keep."""
    if not np.all(np.isfinite(stack)):
        raise NumericalError("propagation produced non-finite entries")
    stack = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
    traces = np.trace(stack, axis1=1, axis2=2).real
    lambda_min = np.linalg.eigvalsh(stack)[:, 0]
    bad = np.flatnonzero((traces < liouville.DENSITY_TRACE_FLOOR)
                         | (traces > liouville.DENSITY_TRACE_CEILING)
                         | (lambda_min < liouville.DENSITY_EIG_FLOOR))
    if bad.size:
        k = bad[0]
        at = "" if times is None else f" at t = {times[k]:.12g} s"
        raise ValidationError(f"density matrix{at} is not a state: trace {traces[k]:.12g}, "
                              f"lambda_min {lambda_min[k]:.6g} "
                              f"(floor {liouville.DENSITY_EIG_FLOOR:g})")
    stack.setflags(write=False)
    return stack


# ---------------------------------------------------------------------------
# Redfield references: one checked matrix per eigenoperator component
# ---------------------------------------------------------------------------

def reference_frequency_decompose(h, lam):
    """bloch_redfield.frequency_decompose as a list of FrequencyComponents, each
    built as V B V^dag from its eigenbasis block B, H diagonalised on every
    call, and a component dropped when its largest entry is at most
    COMPONENT_DROP_RTOL of the coupling's: the form the eigenbasis decomposition
    replaced."""
    evals, vecs = np.linalg.eigh(0.5 * (h.entries + h.entries.conj().T))
    lam_eig = vecs.conj().T @ lam.entries @ vecs
    freq_matrix = evals[:, None] - evals[None, :]
    scale = float(np.abs(evals).max())
    threshold = bloch_redfield.FREQUENCY_BIN_RTOL * (scale if scale > 0 else 1.0)
    reps, labels = bloch_redfield._cluster_frequencies(freq_matrix.reshape(-1), threshold)
    labels = labels.reshape(freq_matrix.shape)
    drop_scale = float(np.abs(lam.entries).max())
    components = []
    for k, f in enumerate(reps):
        comp = vecs @ np.where(labels == k, lam_eig, 0.0) @ vecs.conj().T
        if drop_scale > 0 and np.abs(comp).max() <= bloch_redfield.COMPONENT_DROP_RTOL * drop_scale:
            continue
        components.append(bloch_redfield.FrequencyComponent(
            float(f), liouville.OperatorMatrix(h.basis, comp)))
    return components


def reference_filtered_operators(bath, h):
    """(L_i, Lambda_i, Theta_i) summed one eigenoperator component at a time over
    the components of :func:`reference_frequency_decompose`: the loop that the
    eigenbasis (Hadamard-product) assembly replaced."""
    comps = [reference_frequency_decompose(h, c.matrix) for c in bath.couplings]
    for i, coupling in enumerate(bath.couplings):
        lambda_i = np.zeros((h.dim, h.dim), dtype=complex)
        theta_i = np.zeros((h.dim, h.dim), dtype=complex)
        for ip in range(len(bath.couplings)):
            dens = bath.density(ip, i)
            for comp in comps[ip]:
                j = float(dens.value(comp.omega))
                lambda_i += j * comp.matrix.entries
                theta_i += (j * bloch_redfield.thermal_factor(bath.beta, comp.omega)) * comp.matrix.entries
        yield coupling.matrix.entries, lambda_i, theta_i


# ---------------------------------------------------------------------------
# Monte Carlo references: the path-major forms the package code must reproduce
# ---------------------------------------------------------------------------

def reference_ou_chunk(p, n_steps, n_paths, rng):
    """Path-major OU paths, v[i, k] = v_i(t_k), by lfilter over the kicks."""
    sigma = math.sqrt(p.variance)
    decay = math.exp(-p.dt / p.tau_c)
    v0 = sigma * rng.standard_normal(n_paths)
    kicks = (sigma * math.sqrt(1.0 - decay * decay)) * rng.standard_normal(
        (n_paths, n_steps)
    )
    tail, _ = lfilter([1.0], [1.0, -decay], kicks, axis=1, zi=(decay * v0)[:, None])
    return np.concatenate([v0[:, None], tail], axis=1)


def reference_dichotomous_chunk(p, n_steps, n_paths, rng):
    """Path-major telegraph paths by a cumulative product along each path."""
    q = 0.5 * -math.expm1(-p.dt / p.tau_c)
    signs = np.empty((n_paths, n_steps + 1))
    signs[:, 0] = rng.integers(0, 2, n_paths) * 2 - 1
    signs[:, 1:] = np.where(rng.random((n_paths, n_steps)) < q, -1.0, 1.0)
    return math.sqrt(p.variance) * np.cumprod(signs, axis=1)


def reference_noise_chunk(p, n_steps, n_paths, stream, index):
    """Path-major chunk ``index`` of noise stream ``stream``, from the references above."""
    rng = np.random.default_rng(np.random.SeedSequence((p.seed, stream, index)))
    if p.kind is stochastic.NoiseKind.ORNSTEIN_UHLENBECK:
        return reference_ou_chunk(p, n_steps, n_paths, rng)
    return reference_dichotomous_chunk(p, n_steps, n_paths, rng)


def reference_schroedinger_block(v, omega_s, dt):
    """Per-path (1, 2) amplitudes, v[i, k] = v_i(t_k), one column per step."""
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


def reference_second_order_amplitude(v, omega_s, dt, times):
    """Per-path da(t) by nested cumulative (trapezoid) integrals."""
    phase = np.exp(-1j * omega_s * times)[None, :]
    inner = cumulative_trapezoid(v * phase, dx=dt, initial=0.0, axis=1)
    outer = v * np.conj(phase) * inner
    return cumulative_trapezoid(outer, dx=dt, initial=0.0, axis=1)


def reference_perturbative_amplitudes(p, omega_s, duration, n_traj, omega0=0.0):
    """perturbative_amplitudes with whole per-path histories, as a dict of its fields."""
    n_batches = max(1, min(stochastic.N_BATCHES, n_traj))
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
    for i, size in enumerate(stochastic._chunk_sizes(n_traj)):
        v = reference_noise_chunk(p, n_steps, size, 0, i)
        delta = reference_second_order_amplitude(v, omega_s, p.dt, times)
        a1, a2 = reference_schroedinger_block(v, omega_s, p.dt)
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
    return {
        "times": times,
        "delta_a_mean": sum_delta.sum(axis=0) / n_traj,
        "rho11": sum_abs_a1.sum(axis=0) / n_traj / 0.5,
        "rho01": np.conj(a0) * (sum_a1.sum(axis=0) / n_traj) / 0.5,
        "leak": sum_abs_a2.sum(axis=0) / n_traj / 0.5,
        "norm_defect": norm_defect,
        "n_batches": n_batches,
        "batch_mean_a1": sum_a1 / counts[:, None],
        "batch_mean_abs_a1_sq": sum_abs_a1 / counts[:, None],
    }


def reference_shared_totals_amplitudes(p, omega_s, duration, n_traj, omega0=0.0):
    """perturbative_amplitudes with every chunk stepped straight into one set of
    totals, chunk after chunk, as a dict of its fields: the form whose bits the
    per-chunk sums, added in chunk order, must reproduce."""
    n_batches = max(1, min(stochastic.N_BATCHES, n_traj))
    n_steps = int(math.ceil(duration / p.dt - 1e-9))
    times = np.arange(n_steps + 1) * p.dt
    phase = np.exp(-1j * omega_s * times)
    batch = (np.arange(n_traj) * n_batches) // n_traj
    v_inner = np.zeros(n_steps + 1, dtype=complex)
    sum_a1 = np.zeros((n_steps + 1, n_batches), dtype=complex)
    sum_sq = np.zeros((n_steps + 1, 2, n_batches))
    norm_defect = 0.0
    for i, size in enumerate(stochastic._chunk_sizes(n_traj)):
        draws = np.empty((size, n_steps + 1))
        stochastic._draw_chunk(p, draws, 0, i)
        defect = stochastic._add_chunk(stochastic._noise_blocks(p, draws), omega_s, p.dt, phase,
                                       batch[i * stochastic.CHUNK : i * stochastic.CHUNK + size],
                                       v_inner, sum_a1, sum_sq)
        norm_defect = max(norm_defect, defect)
    outer = np.conj(phase) * v_inner * (0.5 * p.dt)
    delta_a = np.concatenate([[0.0], np.cumsum(p.dt * (outer[1:] + outer[:-1]) / 2.0)])
    counts = np.bincount(batch, minlength=n_batches)
    a0 = (1.0 / math.sqrt(2.0)) * np.exp(-1j * omega0 * times)
    mean_sq = sum_sq.sum(axis=2) / n_traj / 0.5
    return {
        "delta_a_mean": delta_a / n_traj,
        "rho11": mean_sq[:, 0],
        "rho01": np.conj(a0) * (sum_a1.sum(axis=1) / n_traj) / 0.5,
        "leak": mean_sq[:, 1],
        "norm_defect": norm_defect,
        "batch_mean_a1": (sum_a1 / counts).T,
        "batch_mean_abs_a1_sq": (sum_sq[:, 0] / counts).T,
    }


def reference_correlation(values, n_lags):
    """K at lags 0..n_lags: the mean of v(t) v(t + lag) over paths and origins, lag by lag."""
    n_times = values.shape[1]
    corr = np.empty(n_lags + 1)
    for lag in range(n_lags + 1):
        corr[lag] = float(np.mean(values[:, : n_times - lag] * values[:, lag:]))
    return corr


def reference_einsum_correlation(paths):
    """correlation_spectrum's correlation by one rfft and one einsum over each CHUNK
    of paths: the form whose bits the path-sliced estimator must reproduce."""
    p = paths.process
    n = paths.times.size
    n_lags = min(int(round(10.0 * p.tau_c / p.dt)), (n - 1) // 2)
    size = 1 << (n + n_lags - 1).bit_length()
    power = np.zeros(size // 2 + 1)
    for start in range(0, paths.n_paths, stochastic.CHUNK):
        f = np.fft.rfft(paths.values[start : start + stochastic.CHUNK], n=size, axis=1)
        parts = f.view(float).reshape(f.shape + (2,))
        power += np.einsum("ijk,ijk->j", parts, parts)
    lagged = np.fft.irfft(power, n=size)[: n_lags + 1]
    return lagged / (paths.n_paths * (n - np.arange(n_lags + 1)))


def reference_bootstrap_slopes(run, idx):
    """stochastic._bootstrap_slopes with a new array for each step of each curve,
    on one BLAS thread as the package runs it: the form whose bits the in-place
    bootstrap must reproduce."""
    rng = np.random.default_rng(np.random.SeedSequence((run.process.seed, 0xB007)))
    b = run.n_batches
    n = stochastic.N_BOOTSTRAP
    picks = rng.integers(0, b, size=(n, b))
    picks += b * np.arange(n)[:, None]
    weights = np.bincount(picks.ravel(), minlength=n * b).reshape(n, b) / b
    tw = run.times[idx]
    with one_thread():
        rho11_rs = (weights @ run.batch_mean_abs_a1_sq[:, idx]) / 0.5
        mean_a1_rs = weights @ run.batch_mean_a1[:, idx]
        abs_rho01_rs = np.abs(mean_a1_rs) * math.sqrt(2.0)
        return (stochastic._slope(tw, -np.log(rho11_rs)),
                stochastic._slope(tw, -np.log(abs_rho01_rs)))


# ---------------------------------------------------------------------------
# Series writer references: the cell-by-cell writers the CLI replaced
# ---------------------------------------------------------------------------

def _round12(x):
    return float(f"{x:.12g}") if math.isfinite(x) else x


def reference_series_csv(columns, table):
    """timeseries.csv as csv.writer printed it, each cell formatted on its own
    with ``{:.12g}``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([f"{v:.12g}" for v in row] for row in table.tolist())
    return buffer.getvalue()


def reference_series_json(columns, table):
    """timeseries.json as ``json.dumps(records, indent=2)`` printed it: one dict
    per row of cells rounded to 12 significant digits."""
    records = [dict(zip(columns, map(_round12, row))) for row in table.tolist()]
    return json.dumps(records, indent=2) + "\n"
