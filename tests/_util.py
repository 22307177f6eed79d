"""Shared helpers for the test suite."""

import math

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.linalg import expm as reference_expm
from scipy.signal import lfilter

from spinkinetics import NumericalError, liouville, stochastic


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
        v = stochastic._noise_chunk(p, n_steps, size, 0, i).T
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


def reference_correlation(values, n_lags):
    """K at lags 0..n_lags: the mean of v(t) v(t + lag) over paths and origins, lag by lag."""
    n_times = values.shape[1]
    corr = np.empty(n_lags + 1)
    for lag in range(n_lags + 1):
        corr[lag] = float(np.mean(values[:, : n_times - lag] * values[:, lag:]))
    return corr
