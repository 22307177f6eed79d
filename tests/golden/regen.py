"""Golden seed-1 CLI outputs: the cases, how each is produced, and a rewriter.

Each case is one ``spinkinetics`` CLI call at seed 1. Its compared files are
the series or sweep file, byte for byte, and the summary's ``results`` block
(as ``results.json``); the summary's ``wall_time_s`` is a timing and its
``inputs.output.dir`` a path, so neither is kept. ``versions.json`` records
the numpy that wrote the files.

Rewrite every file after a change that moves output bytes on purpose:

    PYTHONPATH=src python tests/golden/regen.py

It prints, per file, whether the file changed, how many lines moved, the
first line that differs and the largest relative change among the numbers
that moved, cell by cell. A rewrite that moves a number by more than
``MOVE_RTOL`` relative, or changes a line beyond its numbers, is named on the
last line and exits 1; the files are written all the same.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np

from spinkinetics.cli import main

HERE = Path(__file__).resolve().parent
VERSIONS = HERE / "versions.json"
#: a rewrite may move a printed number by at most this much, relative
MOVE_RTOL = 1e-11
#: a number standing on its own, not a digit inside a name such as rho_T0T0
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")

_SWEEP = {
    "scenario": "three-state",
    "parameters": {
        "omega_s_rad_s": 1e9,
        "beta_s": 1e-9,
        "spectral_density": {"form": "lorentzian", "lambda_c_rad2_s2": 1e17, "tau_c_s": 1e-10},
        "splitting_density": {"form": "lorentzian", "lambda_c_rad2_s2": 5e16, "tau_c_s": 1e-10},
        "isotropic": True,
        "initial_state": "superposition_01",
        "time_grid": {"t_max_s": 2e-7, "n_points": 51},
    },
    "grid": {"omega_s_rad_s": [5e8, 2e9], "beta_s": [1e-9, "inf"]},
}
#: finite beta: populations move both ways, so the generator is not triangular in the vec basis
_THREE_STATE_THERMAL = {
    "scenario": "three-state",
    "parameters": {**_SWEEP["parameters"], "initial_state": "superposition_12"},
}
#: beta = inf and white noise: the generator is lower triangular in the vec basis
_THREE_STATE_ZERO_TEMPERATURE = {
    "scenario": "three-state",
    "parameters": {
        "omega_s_rad_s": 1e9,
        "beta_s": "inf",
        "spectral_density": {"form": "white", "level_rad2_per_s": 1e7},
        "splitting_density": {"form": "white", "level_rad2_per_s": 5e6},
        "isotropic": True,
        "initial_state": "superposition_12",
        "time_grid": {"t_max_s": 5e-7, "n_points": 51},
    },
}
_RADICAL_PAIR = {
    "scenario": "radical-pair",
    "parameters": {
        "variant": "jones_hore",
        "kappa_s_per_s": 2e9,
        "kappa_t_per_s": 6e8,
        "omega_mean_rad_s": 3e9,
        "delta_omega_rad_s": 1e9,
        "j_exchange_rad_s": 4e8,
        "initial_state": "superposition_ST0",
        "time_grid": {"t_max_s": 5e-9, "n_points": 201},
        "compute_yields": True,
        "tau_c_s": 1e-13,
    },
}
#: the radical-pair case on a long uniform grid, where step-length rounding shows
_RADICAL_PAIR_LONG = {
    "scenario": "radical-pair",
    "parameters": {**_RADICAL_PAIR["parameters"],
                   "time_grid": {"t_max_s": 5e-9, "n_points": 2001}},
}
_RADII = {
    "scenario": "radii",
    "parameters": {
        "d_cm": 4e-8,
        "lambda0_cm": 5e-9,
        "D_cm2_per_s": 1e-5,
        "alpha_per_cm": 1e8,
        "J0_per_s": 1e12,
        "kappa0_s_per_s": 1e10,
        "kappa0_t_per_s": 1e9,
        "Z_cm3": 1e-20,
        "Q_per_s": 1e9,
        "tau_c_s": 1e-13,
        "lambda_amp_cm": 1e-10,
    },
}


def _oracle(kind: str) -> dict:
    return {
        "scenario": "oracle",
        "parameters": {"kind": kind, "variance_rad2_s2": 1e18, "tau_c_s": 1e-13,
                       "omega_s_rad_s": 1e13, "n_traj": 200, "n_spectrum_paths": 1000},
    }


#: case -> (CLI arguments after the config path, config, the series or sweep file)
CASES = {
    "sweep-workers-1": (["sweep", "--workers", "1"], _SWEEP, "sweep.csv"),
    "sweep-workers-2": (["sweep", "--workers", "2"], _SWEEP, "sweep.csv"),
    "three-state-thermal": (["run"], _THREE_STATE_THERMAL, "timeseries.csv"),
    "three-state-zero-temperature": (["run"], _THREE_STATE_ZERO_TEMPERATURE, "timeseries.csv"),
    "radical-pair-csv": (["run", "--format", "csv"], _RADICAL_PAIR, "timeseries.csv"),
    "radical-pair-json": (["run", "--format", "json"], _RADICAL_PAIR, "timeseries.json"),
    "radical-pair-long": (["run", "--format", "csv"], _RADICAL_PAIR_LONG, "timeseries.csv"),
    "radii": (["run"], _RADII, None),
    "oracle-ou": (["run"], _oracle("ou"), "timeseries.csv"),
    "oracle-dichotomous": (["run"], _oracle("dichotomous"), "timeseries.csv"),
}


def versions() -> dict:
    return {"numpy": np.__version__}


def produce(case: str, work: Path) -> dict:
    """Run one case at seed 1 under ``work``: its compared files, name -> text."""
    (command, *flags), config, series = CASES[case]
    cfg = work / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = work / "out"
    code = main([command, str(cfg), "--out-dir", str(out), "--seed", "1", *flags])
    if code != 0:
        raise RuntimeError(f"golden case {case} exited {code}")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    files = {"results.json": json.dumps(summary["results"], indent=2, sort_keys=True) + "\n"}
    if series is not None:
        files[series] = (out / series).read_bytes().decode("utf-8")
    return files


def differing_lines(expected: str, got: str) -> list:
    """(1-based line number, expected line, produced line) of every line that differs."""
    lines = zip_longest(expected.splitlines(keepends=True), got.splitlines(keepends=True),
                        fillvalue="")
    return [(number, a, b) for number, (a, b) in enumerate(lines, start=1) if a != b]


def largest_relative_change(moved: list):
    """Largest |b - a| / max(|a|, |b|) over the numbers of the moved lines,
    paired in order; None when a moved line changed beyond its numbers."""
    worst = 0.0
    for _, a, b in moved:
        if _NUMBER.split(a) != _NUMBER.split(b):
            return None
        for x, y in zip(map(float, _NUMBER.findall(a)), map(float, _NUMBER.findall(b))):
            if x != y:
                worst = max(worst, abs(y - x) / max(abs(x), abs(y)))
    return worst


def regenerate() -> list:
    """Rewrite every case; return the files moved beyond MOVE_RTOL or their numbers."""
    beyond = []
    for case in CASES:
        target = HERE / case
        target.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            produced = produce(case, Path(tmp))
        for old in target.iterdir():
            if old.name not in produced:
                print(f"{case}/{old.name}: removed")
                old.unlink()
        for name, text in produced.items():
            path = target / name
            before = path.read_bytes().decode("utf-8") if path.exists() else ""
            moved = differing_lines(before, text)
            if not moved:
                print(f"{case}/{name}: unchanged")
            else:
                number, a, b = moved[0]
                worst = largest_relative_change(moved) if before else None
                if worst is None or worst > MOVE_RTOL:
                    beyond.append(f"{case}/{name}")
                change = ("not only numbers" if worst is None
                          else f"largest relative change {worst:.2g}")
                print(f"{case}/{name}: changed, {len(moved)} lines, {change}; "
                      f"first line {number}: {a!r} -> {b!r}")
            path.write_text(text, encoding="utf-8", newline="")
    VERSIONS.write_text(json.dumps(versions(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return beyond


if __name__ == "__main__":
    beyond = regenerate()
    if beyond:
        print(f"moved beyond {MOVE_RTOL:g} relative or beyond their numbers: {', '.join(beyond)}")
    sys.exit(1 if beyond else 0)
