"""Workload inputs drawn from the workload seed, and their correctness gates.

Every gate is a tolerance check on the program's outputs, never a byte
comparison against a stored reference, so a refactor that changes rounding or
seed derivation still passes. A gate returns a list of failure messages.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

SWEEP = "three-state-sweep"
ORACLE = "oracle-run"
LADDER = "spin-ladder"
RADICAL_PAIR = "radical-pair-run"
NAMES = (SWEEP, ORACLE, LADDER, RADICAL_PAIR)

#: scenario evaluations per invocation: sweep grid points, ladder systems
POINTS = {SWEEP: 100, ORACLE: 1, LADDER: 3, RADICAL_PAIR: 1}


def _jitter(rng: random.Random, value: float, share: float) -> float:
    return float(f"{value * (1.0 + share * (2.0 * rng.random() - 1.0)):.6g}")


def sweep_config(seed: int) -> dict:
    """100-point omega_s x beta x tau_c grid; every point passes validity."""
    rng = random.Random(seed)
    grid = {
        "omega_s_rad_s": [5e8, 1e9, 2e9, 4e9, 8e9],
        "beta_s": [1e-10, 3e-10, 1e-9, 3e-9, 1e-8],
        "spectral_density.tau_c_s": [5e-11, 1e-10, 2e-10, 4e-10],
    }
    return {
        "scenario": "three-state",
        "parameters": {
            "omega_s_rad_s": 1e9,
            "beta_s": 1e-9,
            "spectral_density": {"form": "lorentzian",
                                 "lambda_c_rad2_s2": _jitter(rng, 1e17, 0.2), "tau_c_s": 1e-10},
            "splitting_density": {"form": "lorentzian",
                                  "lambda_c_rad2_s2": _jitter(rng, 5e16, 0.2), "tau_c_s": 1e-10},
            "isotropic": True,
            "initial_state": "superposition_01",
            "time_grid": {"t_max_s": 2e-7},
        },
        "grid": {k: [_jitter(rng, v, 0.05) for v in values] for k, values in grid.items()},
    }


def oracle_config() -> dict:
    """OU noise with omega_s tau_c = 1; the seed goes to the CLI's --seed."""
    return {
        "scenario": "oracle",
        "parameters": {"kind": "ou", "variance_rad2_s2": 1e18, "tau_c_s": 1e-13,
                       "omega_s_rad_s": 1e13},
    }


def radical_pair_config(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "scenario": "radical-pair",
        "parameters": {
            "variant": "jones_hore",
            "kappa_s_per_s": _jitter(rng, 2e9, 0.2),
            "kappa_t_per_s": _jitter(rng, 6e8, 0.2),
            "omega_mean_rad_s": _jitter(rng, 3e9, 0.2),
            "delta_omega_rad_s": _jitter(rng, 1e9, 0.2),
            "j_exchange_rad_s": _jitter(rng, 4e8, 0.2),
            "initial_state": "superposition_ST0",
            "time_grid": {"t_max_s": 5e-9, "n_points": 2001},
            "compute_yields": True,
        },
    }


def ladder_params(seed: int) -> dict:
    """The child draws H and the couplings from this seed (numpy generator)."""
    return {
        "seed": seed,
        "sizes": [4, 8, 16],
        "n_couplings": 3,
        "h_scale_rad_s": 1e9,
        "amplitude_rad2_s2": 3e17,
        "tau_c_s": 1e-11,
        "beta_s": 1e-9,
        "t_max_s": 5e-7,
        "n_steps": 200,
    }


def write_config(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def gate_sweep_pass(out_dir: Path) -> list:
    """Detailed balance and the w01 closed form on every row; validity passes."""
    rows = _read_csv(out_dir / "sweep.csv")
    errors = []
    if len(rows) != POINTS[SWEEP]:
        errors.append(f"sweep.csv has {len(rows)} rows, expected {POINTS[SWEEP]}")
    for k, row in enumerate(rows):
        beta, omega = float(row["beta_s"]), float(row["omega_s_rad_s"])
        w11, w22 = float(row["rates.w11_per_s"]), float(row["rates.w22_per_s"])
        w01, wbar01 = float(row["rates.w01_per_s"]), float(row["rates.wbar01_per_s"])
        if not _close(w22, w11 * math.exp(-beta * omega), 1e-9):
            errors.append(f"row {k}: w22 != w11 exp(-beta omega_s)")
        if not _close(w01, 0.5 * (w11 + wbar01), 1e-9):
            errors.append(f"row {k}: w01 != (w11 + wbar01) / 2")
        if row["validity.pass"] != "true":
            errors.append(f"row {k}: validity does not pass")
    return errors


def gate_sweep_pair(dir_a: Path, dir_b: Path) -> list:
    """Worker-independence contract: sweep.csv is byte-identical."""
    same = (dir_a / "sweep.csv").read_bytes() == (dir_b / "sweep.csv").read_bytes()
    return [] if same else ["sweep.csv differs between the two passes"]


def gate_oracle(out_dir: Path) -> list:
    res = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))["results"]
    errors = []
    if res["agrees_within_10pct"] is not True:
        errors.append(f"MC and assembled w11 differ by {res['relative_difference']}")
    if abs(res["ratio_w01_w11"] - 0.5) > 0.05:
        errors.append(f"ratio_w01_w11 = {res['ratio_w01_w11']}, not 0.5 +- 0.05")
    if res["validity"]["strong_pass"] is not True:
        errors.append(f"validity ratio {res['validity']['ratio']} misses the strong pass")
    return errors


def gate_ladder(outputs: list) -> list:
    errors = []
    for o in outputs:
        if o["trace_flux_residual"] > 1e-12 * o["max_abs_r"]:
            errors.append(f"N={o['n']}: trace-flux residual {o['trace_flux_residual']}")
        if o["validity_ratio"] > 1e-2:
            errors.append(f"N={o['n']}: validity ratio {o['validity_ratio']}")
        if o["trace_error"] > 1e-9:
            errors.append(f"N={o['n']}: propagated trace off by {o['trace_error']}")
    return errors


def gate_radical_pair(out_dir: Path) -> list:
    res = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))["results"]
    errors = []
    if abs(res["yields"]["total"] - 1.0) > 1e-9:
        errors.append(f"total yield {res['yields']['total']}")
    rows = _read_csv(out_dir / "timeseries.csv")
    trace = [float(r["trace"]) for r in rows]
    if any(b > a + 1e-12 for a, b in zip(trace, trace[1:])):
        errors.append("trace column increases")
    if any(not 0.0 <= float(r["rho_SS"]) <= 1.0 for r in rows):
        errors.append("rho_SS outside [0, 1]")
    return errors
