import copy
import csv
import functools
import json
import math
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from _util import reference_series_csv, reference_series_json
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinkinetics import NumericalError, _blas, cli, radical_pair, stochastic
from spinkinetics.cli import (
    EXIT_NUMERICAL,
    EXIT_PARSE,
    EXIT_VALIDATION,
    ConfigError,
    _checked_config,
    _sweep_tasks,
    main,
)

#: an oracle ensemble of three chunks, the last one partial
THREE_CHUNKS = 2 * stochastic.CHUNK + 452

RADII_PARAMS = {
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
}


#: one valid config per scenario that sets every key its blocks have
VALID = {
    "three-state": {
        "scenario": "three-state",
        "seed": 1,
        "output": {"dir": "out", "format": "csv"},
        "parameters": {
            "omega0_rad_s": 0.0,
            "omega_s_rad_s": 1e9,
            "beta_s": 1e-9,
            "spectral_density": {
                "form": "lorentzian", "lambda_c_rad2_s2": 1e17, "tau_c_s": 1e-10,
            },
            "splitting_density": {
                "form": "tabulated", "omega_rad_s": [0.0, 1e9], "values_rad2_per_s": [1e6, 2e6],
            },
            "isotropic": True,
            "tau_c_s": 1e-10,
            "initial_state": "1",
            "time_grid": {"t_max_s": 1e-8, "n_points": 3},
            "observables": ["rho_11", "trace"],
        },
    },
    "radical-pair": {
        "scenario": "radical-pair",
        "parameters": {
            "variant": "generalized",
            "kappa_s_per_s": 2.0,
            "kappa_t_per_s": 1.0,
            "kappa_st_per_s": 0.5,
            "omega_mean_rad_s": 1.0,
            "delta_omega_rad_s": 1.0,
            "j_exchange_rad_s": 0.1,
            "initial_state": "S",
            "time_grid": {"t_max_s": 2.0, "n_points": 9},
            "compute_yields": True,
            "tau_c_s": 1e-13,
            "observables": ["rho_SS"],
        },
    },
    "radii": {
        "scenario": "radii",
        "parameters": dict(RADII_PARAMS, equal_radius_tolerance=0.2),
    },
    "oracle": {
        "scenario": "oracle",
        "seed": 1,
        "parameters": {
            "kind": "ou",
            "variance_rad2_s2": 1e18,
            "tau_c_s": 1e-13,
            "dt_s": 5e-15,
            "omega_s_rad_s": 0.0,
            "omega0_rad_s": 0.0,
            "t_total_s": 6e-12,
            "n_traj": 2000,
            "n_spectrum_paths": 1200,
        },
    },
}


@pytest.fixture
def pool_sizes(monkeypatch):
    """The size of each pool the CLI builds, in order. The fake pool starts no
    process: it runs its tasks in order in this one."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    return sizes


def set_cpus(monkeypatch, n):
    """Let this process run on ``n`` CPUs, as its affinity says."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def with_params(scenario, **params):
    config = copy.deepcopy(VALID[scenario])
    config["parameters"].update(params)
    return config


def write_config(path, config):
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestRadiiScenario:
    def test_summary_contains_radius_anchor(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", {"scenario": "radii", "parameters": RADII_PARAMS}
        )
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        summary = read_summary(tmp_path / "out")
        results = summary["results"]
        assert results["l_ST_minus_d_cm"] == pytest.approx(4.14e-8, rel=5e-3)
        assert results["kappa_ST_estimate_per_s"] == pytest.approx(1e7, rel=1e-9)
        assert results["validity"]["ratio"] is not None
        assert results["validity"]["pass"] is True
        assert not (tmp_path / "out" / "timeseries.csv").exists()

    def test_out_of_regime_exits_validation(self, tmp_path, capsys):
        params = dict(RADII_PARAMS, J0_per_s=1e9)
        cfg = write_config(
            tmp_path / "cfg.json", {"scenario": "radii", "parameters": params}
        )
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "validation"
        assert not (tmp_path / "out" / "summary.json").exists()


class TestThreeStateScenario:
    def config(self):
        return {
            "scenario": "three-state",
            "parameters": {
                "omega_s_rad_s": 1e9,
                "beta_s": "inf",
                "spectral_density": {"form": "white", "level_rad2_per_s": 1.0},
                "time_grid": {"t_max_s": 2.0, "n_points": 9},
                "observables": ["rho_00", "rho_11", "rho_22", "abs_rho_01"],
            },
        }

    def test_population_decay_columns(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", self.config())
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        header, rows = read_csv(tmp_path / "out" / "timeseries.csv")
        assert header == ["t_s", "rho_00", "rho_11", "rho_22", "abs_rho_01"]
        for row in rows:
            t, _, rho11 = float(row[0]), row[1], float(row[2])
            assert rho11 == pytest.approx(math.exp(-t), rel=1e-9)
        summary = read_summary(tmp_path / "out")
        assert summary["results"]["rates"]["w11_per_s"] == 1.0

    # level * t_max overflows the step's 1-norm to inf; 1e90 leaves it finite
    # (1e290) but overflows its powers
    @pytest.mark.parametrize("t_max", [1e200, 1e90])
    def test_a_step_with_a_non_finite_norm_exits_numerical(self, tmp_path, capsys, t_max):
        config = self.config()
        config["parameters"]["spectral_density"]["level_rad2_per_s"] = 1e200
        config["parameters"]["time_grid"] = {"t_max_s": t_max, "n_points": 3}
        cfg = write_config(tmp_path / "cfg.json", config)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", cfg, "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "numerical"
        assert "matrix exponential" in err["message"]

    @pytest.mark.parametrize("t_max", [1e200, 1e90])
    def test_a_numerical_failure_writes_one_json_line_to_stderr(self, tmp_path, t_max):
        config = self.config()
        config["parameters"]["spectral_density"]["level_rad2_per_s"] = 1e200
        config["parameters"]["time_grid"] = {"t_max_s": t_max, "n_points": 3}
        cfg = write_config(tmp_path / "cfg.json", config)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        command = ["run", cfg, "--out-dir", str(tmp_path / "out")]
        proc = subprocess.run([sys.executable, "-m", "spinkinetics.cli", *command],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_NUMERICAL
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == "numerical"

    def test_json_series_format(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", self.config())
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out"), "--format", "json"]) == 0
        records = json.loads((tmp_path / "out" / "timeseries.json").read_text())
        assert records[0]["rho_11"] == 1.0

    def test_malformed_config_exits_parse(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["run", str(bad), "--out-dir", str(tmp_path / "out")]) == EXIT_PARSE
        assert json.loads(capsys.readouterr().err.strip())["error"] == "parse"
        assert not (tmp_path / "out").exists()

    def test_unknown_key_exits_validation(self, tmp_path):
        config = self.config()
        config["parameters"]["kappa_X_per_s"] = 1.0
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION


    def test_invalid_utf8_exits_parse(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["run", str(bad), "--out-dir", str(tmp_path / "out")]) == EXIT_PARSE
        assert json.loads(capsys.readouterr().err.strip())["error"] == "parse"
        assert not (tmp_path / "out").exists()


class TestRadicalPairScenario:
    def config(self, **overrides):
        params = {
            "variant": "haberkorn",
            "kappa_s_per_s": 2.0,
            "kappa_t_per_s": 1.0,
            "delta_omega_rad_s": 0.0,
            "time_grid": {"t_max_s": 2.0, "n_points": 9},
            "tau_c_s": 1e-13,
        }
        params.update(overrides)
        return {"scenario": "radical-pair", "parameters": params}

    def test_summary_rates_and_yields(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", self.config())
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        results = read_summary(tmp_path / "out")["results"]
        assert results["rate_elements"]["k_ST_per_s"] == pytest.approx(1.5)
        assert results["coherence"]["rate_per_s"] == pytest.approx(1.5, rel=1e-6)
        assert results["yields"]["singlet"] == pytest.approx(1.0, abs=1e-9)
        assert results["validity"]["strong_pass"] is True

    def test_nondecaying_yields_exit_numerical(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", self.config(kappa_t_per_s=0.0))
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == EXIT_NUMERICAL
        assert json.loads(capsys.readouterr().err.strip())["error"] == "numerical"


class TestValidityWithoutTauC:
    """Without a tau_c the validity block is all None, and no K is built for it."""

    @pytest.mark.parametrize("scenario", ["radical-pair", "radii"])
    @pytest.mark.parametrize("tau_c", [None, 1e-13], ids=["no-tau_c", "tau_c"])
    def test_validity_builds_k_only_with_a_tau_c(self, tmp_path, monkeypatch, scenario, tau_c):
        cli_calls = []
        build = radical_pair.reaction_supermatrix

        def counted(m):
            if sys._getframe(1).f_globals["__name__"] == cli.__name__:
                cli_calls.append(m)
            return build(m)

        monkeypatch.setattr(radical_pair, "reaction_supermatrix", counted)
        config = with_params(scenario, tau_c_s=tau_c)
        if tau_c is None:
            del config["parameters"]["tau_c_s"]
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        validity = read_summary(tmp_path / "out")["results"]["validity"]
        if tau_c is None:
            assert validity == {"ratio": None, "tau_c_s": None, "pass": None,
                                "strong_pass": None}
            assert cli_calls == []
        else:
            assert validity["pass"] is True
            assert len(cli_calls) == 1


class TestConfigSchema:
    @pytest.mark.parametrize(
        "key, config",
        [
            ("tau_c_s", with_params("three-state", tau_c_s="abc")),
            ("time_grid", with_params("three-state", time_grid=5)),
            ("observables", with_params("three-state", observables=[["x"]])),
            ("omega_rad_s", with_params("three-state", spectral_density={
                "form": "tabulated", "omega_rad_s": ["a", "b"], "values_rad2_per_s": [1.0, 1.0],
            })),
            ("Z_cm3", with_params("radii", Z_cm3="x")),
            ("tau_c_s", with_params("radical-pair", tau_c_s="x")),
        ],
    )
    def test_malformed_value_exits_validation_naming_the_key(
        self, tmp_path, capsys, key, config
    ):
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "validation"
        assert key in err["message"]
        assert not (tmp_path / "out").exists()

    @staticmethod
    def key_paths(block, prefix=()):
        for key, value in block.items():
            yield prefix + (key,)
            if isinstance(value, dict):
                yield from TestConfigSchema.key_paths(value, prefix + (key,))

    JUNK = st.one_of(
        st.none(),
        st.booleans(),
        st.text(max_size=4),
        st.lists(st.one_of(st.none(), st.integers(), st.text(max_size=2)), max_size=3),
        st.dictionaries(st.text(max_size=3), st.integers(), min_size=1, max_size=1),
        st.sampled_from([-1.0, 0.0, math.nan, math.inf]),
    )

    @pytest.mark.parametrize("scenario", sorted(VALID))
    def test_any_one_bad_value_is_a_config_error(self, scenario):
        rejected = []

        @settings(max_examples=60, deadline=None, derandomize=True)
        @given(data=st.data())
        def one_bad_value(data):
            config = copy.deepcopy(VALID[scenario])
            path = data.draw(st.sampled_from(sorted(self.key_paths(config))))
            node = config
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = data.draw(self.JUNK)
            try:
                _checked_config(config, sweep=False)  # every check a run makes
            except ConfigError:
                rejected.append(path)

        one_bad_value()
        # a check path that skips the parameters' keys would reject none of them
        assert any(path[0] == "parameters" and len(path) > 1 for path in rejected)


def without(scenario, key):
    config = copy.deepcopy(VALID[scenario])
    del config["parameters"][key]
    return config


def three_state_sweep(grid):
    return dict(copy.deepcopy(VALID["three-state"]), grid=grid)


class TestRejections:
    """Each rejection exits 3 with one stderr JSON line that names the key, and
    makes no output directory."""

    @pytest.mark.parametrize("command, config, named", [
        ("run", without("three-state", "omega_s_rad_s"),
         "missing key in config.parameters: 'omega_s_rad_s'"),
        ("run", with_params("three-state", omega_s_rad_s=10**400),
         "config.parameters.omega_s_rad_s must be finite"),
        ("run", with_params("three-state", spectral_density={
            "form": "tabulated", "omega_rad_s": [1.0, 0.0], "values_rad2_per_s": [1.0, 1.0],
        }), "config.parameters.spectral_density: tabulated grid must be strictly increasing"),
        ("sweep", three_state_sweep([]), "config.grid must be a non-empty object"),
        ("sweep", three_state_sweep({key: [1.0] for key in "abcd"}),
         "config.grid spans more than 3 parameters"),
        ("sweep", three_state_sweep({"omega_s_rad_s": []}),
         "config.grid.omega_s_rad_s must be a non-empty list"),
        ("run", [VALID["radii"]], "config root must be an object"),
        ("run", {"inputs": [VALID["radii"]], "results": {}},
         "summary inputs block must be an object"),
        ("sweep", three_state_sweep({"omega_s_rad_s.x": [1.0]}),
         "grid key 'omega_s_rad_s.x' does not address a parameter block"),
        # the time grid is checked before anything of its size is allocated
        ("run", with_params("three-state", time_grid={"t_max_s": 1e-8, "n_points": 10**15}),
         f"config.parameters.time_grid.n_points must be at most {cli.TIME_GRID_MAX_POINTS}"),
        # and the oracle's noise paths before they are drawn
        ("run", with_params("oracle", dt_s=1e-30),
         "config.parameters: 2000 noise paths (n_spectrum_paths, or n_traj up to 2048) of "
         "6e+18 steps (dt_s) exceed 67108864 float64 cells"),
    ], ids=["missing-key", "huge-integer", "decreasing-tabulated-grid", "grid-not-an-object",
            "four-grid-keys", "empty-grid-values", "root-not-an-object",
            "summary-inputs-not-an-object", "dotted-key-through-a-value", "huge-time-grid",
            "tiny-oracle-step"])
    def test_exits_3_with_one_line_naming_the_key(self, tmp_path, capsys, command, config, named):
        cfg = write_config(tmp_path / "cfg.json", config)
        out = tmp_path / "out"
        assert main([command, cfg, "--out-dir", str(out)]) == EXIT_VALIDATION
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "validation", "message": named}
        assert not out.exists()


#: an oracle step at which 60 tau_c is exactly 2**15 steps, so that a chunk of
#: 2048 trajectories over 2**15 + 1 points is the first to exceed 2**26 cells
FINE_STEP = 6e-12 / 2**15


class TestOracleSizes:
    """An oracle's sizes are checked before any array is drawn: a run or a sweep
    past ORACLE_MAX_CELLS exits 3 with one line and makes no output directory."""

    @pytest.mark.parametrize("command, config, named", [
        ("run", with_params("oracle", n_traj=cli.ORACLE_MAX_CELLS + 1),
         "config.parameters.n_traj must be at most 67108864"),
        ("run", with_params("oracle", n_spectrum_paths=55878),
         "config.parameters: 55878 noise paths (n_spectrum_paths, or n_traj up to 2048) of "
         "1201 steps (dt_s) exceed 67108864 float64 cells"),
        ("run", with_params("oracle", dt_s=FINE_STEP, n_spectrum_paths=1000, n_traj=2048),
         "config.parameters: 2048 noise paths (n_spectrum_paths, or n_traj up to 2048) of "
         "32769 steps (dt_s) exceed 67108864 float64 cells"),
        ("sweep", dict(with_params("oracle", n_spectrum_paths=1000, n_traj=2048),
                       grid={"dt_s": [5e-15, FINE_STEP]}),
         "grid point {'dt_s': 1.8310546875e-16}: config.parameters: 2048 noise paths (n_spectrum_paths, or n_traj up to 2048) of "
         "32769 steps (dt_s) exceed 67108864 float64 cells"),
        ("run", with_params("oracle", dt_s=5e-324),  # the step count overflows a float
         "config.parameters: 2000 noise paths (n_spectrum_paths, or n_traj up to 2048) of "
         "inf steps (dt_s) exceed 67108864 float64 cells"),
    ], ids=["trajectories", "spectrum-paths", "steps-of-a-chunk", "sweep-point",
            "subnormal-step"])
    def test_a_size_just_past_its_bound_exits_3(self, tmp_path, capsys, command, config,
                                                 named):
        cfg = write_config(tmp_path / "cfg.json", config)
        out = tmp_path / "out"
        assert main([command, cfg, "--out-dir", str(out)]) == EXIT_VALIDATION
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "validation", "message": named}
        assert not out.exists()

    @pytest.mark.parametrize("params", [
        {"n_traj": cli.ORACLE_MAX_CELLS}, {"n_spectrum_paths": 55877},
        {"dt_s": FINE_STEP, "n_spectrum_paths": 1000, "n_traj": 2047},
    ], ids=["trajectories", "spectrum-paths", "steps-of-a-chunk"])
    def test_a_size_at_its_bound_passes_the_checks(self, params):
        _checked_config(with_params("oracle", **params), sweep=False)  # draws nothing


class TestRoundTrip:
    def test_summary_refeeds_identically(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", {"scenario": "radii", "parameters": RADII_PARAMS}
        )
        assert main(["run", cfg, "--out-dir", str(tmp_path / "a")]) == 0
        summary_path = tmp_path / "a" / "summary.json"
        assert main(["run", str(summary_path), "--out-dir", str(tmp_path / "b")]) == 0
        a = read_summary(tmp_path / "a")
        b = read_summary(tmp_path / "b")
        a["inputs"]["output"]["dir"] = b["inputs"]["output"]["dir"] = ""
        assert json.dumps(a["results"], sort_keys=True) == json.dumps(
            b["results"], sort_keys=True
        )
        assert json.dumps(a["inputs"]["parameters"], sort_keys=True) == json.dumps(
            b["inputs"]["parameters"], sort_keys=True
        )


class TestSweep:
    def test_diffusion_grid_scales_sensitivity(self, tmp_path):
        config = {
            "scenario": "radii",
            "parameters": RADII_PARAMS,
            "grid": {"D_cm2_per_s": [1e-6, 1e-5]},
        }
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["sweep", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        header, rows = read_csv(tmp_path / "out" / "sweep.csv")
        col = header.index("sensitivity_index")
        values = [float(r[col]) for r in rows]
        # dominated by the 1/D factor; the radius gap drifts only with log D
        assert values[0] / values[1] == pytest.approx(10.0, rel=0.25)

    def test_variant_grid_doubles_coherence_rate(self, tmp_path):
        config = {
            "scenario": "radical-pair",
            "parameters": {
                "variant": "haberkorn",
                "kappa_s_per_s": 2.0,
                "kappa_t_per_s": 0.0,
                "compute_yields": False,
                "time_grid": {"t_max_s": 1.0, "n_points": 5},
            },
            "grid": {"variant": ["haberkorn", "jones_hore"]},
        }
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["sweep", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        header, rows = read_csv(tmp_path / "out" / "sweep.csv")
        col = header.index("coherence.rate_per_s")
        by_variant = {r[header.index("variant")]: float(r[col]) for r in rows}
        assert by_variant["jones_hore"] == pytest.approx(
            2 * by_variant["haberkorn"], rel=1e-9
        )

    @pytest.mark.parametrize("config, grid", [
        (VALID["three-state"], {"omega_s_rad_s": [1e9]}),
        (VALID["radical-pair"], {"kappa_s_per_s": [2.0]}),
        (with_params("radical-pair", compute_yields=False), {"kappa_s_per_s": [2.0]}),
        (VALID["radii"], {"Q_per_s": [1e9]}),
    ], ids=["three-state", "radical-pair-yields", "radical-pair-no-yields", "radii"])
    def test_single_point_grid_matches_run(self, tmp_path, config, grid):
        run_cfg = write_config(tmp_path / "run.json", config)
        sweep_cfg = write_config(tmp_path / "sweep.json", dict(config, grid=grid))
        assert main(["run", run_cfg, "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["sweep", sweep_cfg, "--out-dir", str(tmp_path / "b")]) == 0
        results = cli._flatten(read_summary(tmp_path / "a")["results"])
        header, rows = read_csv(tmp_path / "b" / "sweep.csv")
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert sorted(header) == sorted([*grid, *results])

        def cell(value):  # a summary value as sweep.csv prints it
            if isinstance(value, bool):
                return "true" if value else "false"
            return "" if value is None else f"{value:.12g}"

        assert {key: row[key] for key in results} == {
            key: cell(value) for key, value in results.items()
        }

    def test_swept_tau_c_reaches_the_validity_columns(self, tmp_path):
        taus = [5e-11, 2e-10]
        config = {
            "scenario": "three-state",
            "parameters": {
                "omega_s_rad_s": 1e9,
                "beta_s": 1e-9,
                "spectral_density": {
                    "form": "lorentzian", "lambda_c_rad2_s2": 1e17, "tau_c_s": 1e-10,
                },
                "time_grid": {"t_max_s": 1e-8, "n_points": 3},
            },
            "grid": {"spectral_density.tau_c_s": taus},
        }
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["sweep", cfg, "--out-dir", str(tmp_path / "out"), "--workers", "1"]) == 0
        header, rows = read_csv(tmp_path / "out" / "sweep.csv")
        col = header.index("validity.tau_c_s")
        assert [float(r[col]) for r in rows] == taus

    def test_refed_summary_reproduces_the_sweep(self, tmp_path):
        config = with_params("three-state", splitting_density={
            "form": "white", "level_rad2_per_s": 1e6,
        })
        del config["parameters"]["tau_c_s"]  # validity takes the Lorentzian's
        config["grid"] = {"spectral_density.tau_c_s": [5e-11, 2e-10]}
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["sweep", cfg, "--out-dir", str(tmp_path / "a"), "--workers", "1"]) == 0
        refed = str(tmp_path / "a" / "summary.json")
        assert main(["sweep", refed, "--out-dir", str(tmp_path / "b"), "--workers", "1"]) == 0
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
            tmp_path / "b" / "sweep.csv"
        ).read_bytes()

    def test_refed_variant_sweep_reproduces_the_sweep(self, tmp_path):
        config = {
            "scenario": "radical-pair",
            "parameters": {
                "variant": "generalized",
                "kappa_s_per_s": 2.0,
                "kappa_t_per_s": 1.0,
                "time_grid": {"t_max_s": 1.0, "n_points": 5},
            },
            "grid": {"variant": ["generalized", "haberkorn"]},
        }
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["sweep", cfg, "--out-dir", str(tmp_path / "a"), "--workers", "1"]) == 0
        summary = read_summary(tmp_path / "a")
        assert summary["inputs"]["parameters"] == config["parameters"]
        refed = str(tmp_path / "a" / "summary.json")
        assert main(["sweep", refed, "--out-dir", str(tmp_path / "b"), "--workers", "1"]) == 0
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
            tmp_path / "b" / "sweep.csv"
        ).read_bytes()

    def test_header_is_the_union_of_every_row_keys(self, tmp_path):
        config = {
            "scenario": "radical-pair",
            "parameters": {
                "variant": "haberkorn",
                "kappa_s_per_s": 2.0,
                "kappa_t_per_s": 1.0,
                "time_grid": {"t_max_s": 1.0, "n_points": 5},
            },
            "grid": {"compute_yields": [False, True]},
        }
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["sweep", cfg, "--out-dir", str(tmp_path / "out"), "--workers", "1"]) == 0
        header, rows = read_csv(tmp_path / "out" / "sweep.csv")
        assert header[1:] == sorted(header[1:])
        assert "yields" not in header
        col = header.index("yields.total")
        assert [r[col] for r in rows] == ["", "1"]
        assert all(len(r) == len(header) for r in rows)

    @pytest.mark.parametrize("scenario, grid", [
        ("three-state", {"omega_s_rad_s": [1e9, 2e9, -1e9]}),
        ("oracle", {"tau_c_s": [1e-13, 5e-14]}),  # dt_s 5e-15 above tau_c / 20
        ("oracle", {"variance_rad2_s2": [1e18, 1e24]}),  # outside the second-order window
    ], ids=["three-state", "oracle-dt", "oracle-window"])
    def test_whole_grid_is_checked_before_any_point_runs(
        self, tmp_path, monkeypatch, scenario, grid
    ):
        calls = []
        run_point = cli._run_point
        monkeypatch.setattr(cli, "_run_point", lambda *a: calls.append(a) or run_point(*a))
        config = copy.deepcopy(VALID[scenario])
        config["grid"] = grid
        cfg = write_config(tmp_path / "cfg.json", config)
        out = str(tmp_path / "out")
        assert main(["sweep", cfg, "--out-dir", out, "--workers", "1"]) == EXIT_VALIDATION
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_a_key_set_only_by_the_grid_needs_no_base_value(self, tmp_path):
        config = without("three-state", "omega_s_rad_s")
        config["grid"] = {"omega_s_rad_s": [5e8, 2e9]}
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["sweep", cfg, "--out-dir", str(tmp_path / "a"), "--workers", "1"]) == 0
        refed = str(tmp_path / "a" / "summary.json")
        assert main(["sweep", refed, "--out-dir", str(tmp_path / "b"), "--workers", "1"]) == 0
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
            tmp_path / "b" / "sweep.csv"
        ).read_bytes()

    def test_a_variant_point_may_drop_the_rates_of_the_base_variant(self, tmp_path):
        params = {"variant": "haberkorn", "kappa_d_per_s": 1.5, "compute_yields": False,
                  "time_grid": {"t_max_s": 1.0, "n_points": 5}}
        sweep_cfg = write_config(tmp_path / "sweep.json", {
            "scenario": "radical-pair", "parameters": params,
            "grid": {"variant": ["dephasing_only"]},
        })
        run_cfg = write_config(tmp_path / "run.json", {
            "scenario": "radical-pair", "parameters": dict(params, variant="dephasing_only"),
        })
        assert main(["sweep", sweep_cfg, "--out-dir", str(tmp_path / "a"), "--workers", "1"]) == 0
        assert main(["run", run_cfg, "--out-dir", str(tmp_path / "b")]) == 0
        header, rows = read_csv(tmp_path / "a" / "sweep.csv")
        rate = read_summary(tmp_path / "b")["results"]["coherence"]["rate_per_s"]
        assert rows == [["dephasing_only", *rows[0][1:]]]
        assert float(rows[0][header.index("coherence.rate_per_s")]) == rate

    def test_a_bad_base_value_no_point_sets_fails_before_any_point_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli, "_run_point", lambda *a: calls.append(a))
        config = with_params("three-state", beta_s=-1.0)
        config["grid"] = {"omega_s_rad_s": [5e8, 2e9]}
        cfg = write_config(tmp_path / "cfg.json", config)
        out = tmp_path / "out"
        assert main(["sweep", cfg, "--out-dir", str(out), "--workers", "1"]) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == (
            "grid point {'omega_s_rad_s': 500000000.0}: config.parameters.beta_s must be >= 0.0"
        )
        assert calls == []
        assert not out.exists()

    def test_point_seeds_do_not_repeat_across_master_seeds(self):
        def seeds(master):
            config = dict(VALID["oracle"], seed=master,
                          grid={"omega_s_rad_s": [0.0, 1e12, 2e12]})
            return [task[3] for task in _sweep_tasks(config)]

        a, b = seeds(3), seeds(3 + 7919)
        assert len(set(a + b)) == 6
        assert seeds(3) == a

    @pytest.mark.parametrize("scenario, grid, seeded", [
        ("oracle", {"omega_s_rad_s": [0.0, 1e12, 2e12]}, True),
        ("three-state", {"omega_s_rad_s": [5e8, 1e9, 2e9]}, False),
        ("radii", {"D_cm2_per_s": [1e-6, 2e-6, 5e-6]}, False),
    ], ids=["oracle", "three-state", "radii"])
    def test_a_point_gets_a_seed_only_where_its_runner_reads_one(
        self, tmp_path, monkeypatch, scenario, grid, seeded
    ):
        seeds = []
        monkeypatch.setattr(cli, "_run_point",
                            lambda scenario, params, seed: seeds.append(seed) or ({}, None))
        cfg = write_config(tmp_path / "cfg.json", dict(VALID[scenario], seed=11, grid=grid))
        assert main(["sweep", cfg, "--out-dir", str(tmp_path / "out"), "--workers", "1"]) == 0
        expected = [int(np.random.SeedSequence((11, index)).generate_state(1)[0])
                    for index in range(3)]
        assert seeds == (expected if seeded else [None] * 3)

    def test_oversized_grid_rejected(self, tmp_path, capsys):
        config = {
            "scenario": "radii",
            "parameters": RADII_PARAMS,
            "grid": {
                "D_cm2_per_s": [1e-5] * 101,
                "Q_per_s": [1e9] * 100,
                "J0_per_s": [1e12] * 100,
            },
        }
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["sweep", cfg, "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION

    def test_workers_produce_identical_rows(self, tmp_path):
        config = {
            "scenario": "radii",
            "parameters": RADII_PARAMS,
            "grid": {"D_cm2_per_s": [1e-6, 2e-6, 5e-6]},
        }
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["sweep", cfg, "--out-dir", str(tmp_path / "serial")]) == 0
        assert (
            main(["sweep", cfg, "--out-dir", str(tmp_path / "pool"), "--workers", "2"])
            == 0
        )
        serial = (tmp_path / "serial" / "sweep.csv").read_text()
        pooled = (tmp_path / "pool" / "sweep.csv").read_text()
        assert serial == pooled

    def test_pool_is_no_larger_than_the_grid(self, tmp_path, pool_sizes):
        config = {
            "scenario": "radii",
            "parameters": RADII_PARAMS,
            "grid": {"D_cm2_per_s": [1e-6, 2e-6, 5e-6]},
        }
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["sweep", cfg, "--out-dir", str(tmp_path / "out"), "--workers", "64"]) == 0
        assert all(n <= 3 for n in pool_sizes)

    def test_pools_are_sized_by_cpu_affinity(self, tmp_path, monkeypatch, pool_sizes):
        config = {"scenario": "radii", "parameters": RADII_PARAMS,
                  "grid": {"D_cm2_per_s": [1e-6, 2e-6, 5e-6]}}
        cfg = write_config(tmp_path / "cfg.json", config)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        set_cpus(monkeypatch, 1)  # pinned to one of two CPUs: no pool at all
        assert main(["sweep", cfg, "--out-dir", str(tmp_path / "pinned")]) == 0
        assert pool_sizes == []
        monkeypatch.delattr(os, "sched_getaffinity")  # no affinity: the CPU count
        assert main(["sweep", cfg, "--out-dir", str(tmp_path / "counted")]) == 0
        assert pool_sizes == [2]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_failing_point_is_named_with_its_class_and_exit_code(
        self, tmp_path, capsys, workers
    ):
        config = {
            "scenario": "radical-pair",
            "parameters": {
                "variant": "haberkorn",
                "kappa_s_per_s": 2.0,
                "kappa_t_per_s": 1.0,
                "time_grid": {"t_max_s": 1.0, "n_points": 5},
            },
            "grid": {"kappa_t_per_s": [1.0, 0.0, 0.5]},  # the triplet never decays at 0
        }
        cfg = write_config(tmp_path / "cfg.json", config)
        out = str(tmp_path / "out")
        assert main(["sweep", cfg, "--out-dir", out, "--workers", workers]) == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "numerical"
        assert err["message"].startswith("grid point {'kappa_t_per_s': 0.0}: ")
        assert "non-decaying" in err["message"]


#: the sweep pool pins each loaded OpenBLAS copy; without one there is nothing to pin
needs_pool = pytest.mark.skipif(
    not _blas.threads() or (os.cpu_count() or 1) < 2,
    reason="needs OpenBLAS thread control and two CPUs",
)


#: forked pool workers, counted in /proc/self/task
needs_forked_task_count = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork" or not os.path.isdir("/proc/self/task"),
    reason="the patched task reaches forked workers only, and counts threads in /proc",
)


def os_threads() -> int:
    """The OS threads of this process."""
    return len(os.listdir("/proc/self/task"))


_chunk_sums = stochastic._chunk_sums


def counted_chunk_sums(counts, *args):
    """A chunk's sums, with its process's thread count appended to ``counts``.
    Module level, so that a pool can pickle it."""
    sums = _chunk_sums(*args)
    with open(counts, "a", encoding="utf-8") as fh:
        fh.write(f"{os_threads()}\n")
    return sums


@needs_pool
class TestSweepPool:
    @pytest.mark.parametrize("grid", [
        {"omega_s_rad_s": [5e8, 1e9, 2e9], "spectral_density.tau_c_s": [5e-11, 2e-10]},
        # 21 points: two workers take chunks of 2 and a remainder of 1
        {"omega_s_rad_s": [5e8, 7e8, 1e9, 1.5e9, 2e9, 3e9, 5e9],
         "spectral_density.tau_c_s": [5e-11, 1e-10, 2e-10]},
    ], ids=["6-points", "21-points"])
    def test_three_state_rows_match_serial_bit_for_bit(self, tmp_path, grid):
        config = with_params("three-state", observables=["rho_11"])
        config["grid"] = grid
        cfg = write_config(tmp_path / "cfg.json", config)
        for workers in ("1", "2"):
            out = str(tmp_path / workers)
            assert main(["sweep", cfg, "--out-dir", out, "--workers", workers]) == 0
        assert (tmp_path / "1" / "sweep.csv").read_bytes() == (
            tmp_path / "2" / "sweep.csv"
        ).read_bytes()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched point runner reaches forked workers only")
    def test_workers_run_one_blas_thread_and_the_parent_gets_its_counts_back(
        self, tmp_path, monkeypatch
    ):
        def thread_counts(scenario, params, seed):  # a point that reports its worker's BLAS
            return {"threads": list(_blas.threads().values())}, None

        monkeypatch.setattr(cli, "_run_point", thread_counts)
        config = {"scenario": "radii", "parameters": RADII_PARAMS,
                  "grid": {"D_cm2_per_s": [1e-6, 2e-6, 5e-6, 1e-5]}}
        cfg = write_config(tmp_path / "cfg.json", config)
        before = _blas.threads(2)  # more than one, so pinning shows
        try:
            assert set(_blas.threads().values()) == {2}
            assert main(["sweep", cfg, "--out-dir", str(tmp_path / "out"), "--workers", "2"]) == 0
            after = _blas.threads()
        finally:
            _blas.threads(before)
        assert set(after.values()) == {2}
        header, rows = read_csv(tmp_path / "out" / "sweep.csv")
        columns = [i for i, name in enumerate(header) if name.startswith("threads[")]
        assert len(columns) == len(after)
        assert {row[i] for row in rows for i in columns} == {"1"}

    @needs_forked_task_count
    def test_forked_sweep_and_oracle_workers_run_one_os_thread(self, tmp_path, monkeypatch):
        # an OpenBLAS set call in a fresh worker would start a busy-waiting
        # server thread beside the worker's own
        set_cpus(monkeypatch, 2)
        config = {"scenario": "radii", "parameters": RADII_PARAMS,
                  "grid": {"D_cm2_per_s": [1e-6, 2e-6, 5e-6, 1e-5, 2e-5]}}
        cfg = write_config(tmp_path / "cfg.json", config)
        with monkeypatch.context() as m:
            m.setattr(cli, "_run_point", lambda *a: ({"threads": os_threads()}, None))
            assert main(["sweep", cfg, "--out-dir", str(tmp_path / "sweep"), "--workers", "2"]) == 0
        header, rows = read_csv(tmp_path / "sweep" / "sweep.csv")
        assert {row[header.index("threads")] for row in rows} == {"1"}

        counts = tmp_path / "counts"
        monkeypatch.setattr(stochastic, "_chunk_sums",
                            functools.partial(counted_chunk_sums, str(counts)))
        config = with_params("oracle", n_traj=THREE_CHUNKS, t_total_s=2e-12)
        cfg = write_config(tmp_path / "oracle.json", config)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "oracle")]) == 0
        assert counts.read_text().split() == ["1"] * 3


class TestOutputFiles:
    @pytest.mark.parametrize("command, blocked", [
        ("run", "summary.json"),
        ("run", "timeseries.csv"),
        ("sweep", "sweep.csv"),
        ("sweep", "summary.json"),
    ])
    def test_an_unwritable_output_file_exits_3_naming_it(
        self, tmp_path, capsys, command, blocked
    ):
        config = with_params("three-state")
        if command == "sweep":
            config["grid"] = {"omega_s_rad_s": [1e9]}
        cfg = write_config(tmp_path / "cfg.json", config)
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)  # a directory where the file goes
        assert main([command, cfg, "--out-dir", str(out)]) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "validation"
        assert repr(str(out / blocked)) in err["message"]
        assert blocked != "timeseries.csv" or not (out / "summary.json").exists()


#: cells the series writers must print as the cell-by-cell writers did
SPECIAL_CELLS = [
    0.0, -0.0, 1.0, -3.0, 2.0**53, 1e16, 123456789012.0,  # integral floats
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,  # subnormals and the smallest normal
    1e300, -1e-300, 1.7976931348623157e308, 9.999999999995e299,
    0.1, 1 / 3, 2.5e-11, 0.999999999999951, 9.9999999999995e-5,
    math.nan, math.inf, -math.inf,
]
BLOCK = cli.SERIES_BLOCK_ROWS


class TestSeriesWriter:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        columns=st.lists(st.sampled_from(["t_s", "rho_SS", "a,b", 'q"', "100%s", "é", ""]),
                         min_size=1, max_size=6),
        cells=st.lists(st.one_of(st.sampled_from(SPECIAL_CELLS), st.floats()),
                       min_size=1, max_size=60),
        n_rows=st.sampled_from([1, 2, 7, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 37]),
    )
    @example(columns=["t_s"], cells=[-0.0], n_rows=1)
    @example(columns=["t_s", "x", "t_s"], cells=[1.0, 2.0, 3.0, 4.0], n_rows=3)
    @example(columns=["t_s", "rho_SS"], cells=SPECIAL_CELLS, n_rows=BLOCK + 1)
    def test_both_formats_match_the_cell_by_cell_writers(self, columns, cells, n_rows):
        table = np.resize(np.array(cells), (n_rows, len(columns)))
        for fmt, reference in (("csv", reference_series_csv), ("json", reference_series_json)):
            assert "".join(cli._series_pieces(columns, table, fmt)) == reference(columns, table)


class TestOutputDir:
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_uncreatable_dir_exits_3_before_any_point_runs(
        self, tmp_path, monkeypatch, capsys, command
    ):
        calls = []
        monkeypatch.setattr(cli, "_run_point", lambda *a: calls.append(a))
        config = {"scenario": "radii", "parameters": RADII_PARAMS, "grid": {"Q_per_s": [1e9]}}
        if command == "run":
            del config["grid"]
        cfg = write_config(tmp_path / "cfg.json", config)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main([command, cfg, "--out-dir", str(blocker / "out")]) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "validation"
        assert "config.output.dir" in err["message"]
        assert calls == []

    def test_a_dir_with_a_nul_byte_exits_3_naming_it(self, tmp_path, capsys):
        config = dict(VALID["radii"], output={"dir": str(tmp_path / "a\x00b")})
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["run", cfg]) == EXIT_VALIDATION
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["message"].startswith("config.output.dir ")
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


def test_runtime_loads_no_scipy(tmp_path):
    """No scipy module after import, nor after a radical-pair run and a serial
    three-state sweep, so a lazy import shows too."""
    rp = write_config(tmp_path / "rp.json", VALID["radical-pair"])
    sweep = dict(VALID["three-state"], grid={"omega_s_rad_s": [5e8, 2e9]})
    ts = write_config(tmp_path / "ts.json", sweep)
    code = f"""
import contextlib, io, sys
import spinkinetics.cli as cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = [loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["run", {rp!r}, "--out-dir", {str(tmp_path / "rp")!r}]) == 0
    seen.append(loaded())
    assert cli.main(["sweep", {ts!r}, "--out-dir", {str(tmp_path / "ts")!r},
                     "--workers", "1"]) == 0
    seen.append(loaded())
print(seen)
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[[], [], []]"


def test_serial_sweeps_of_unseeded_scenarios_load_no_numpy_random(tmp_path):
    """No three-state, radical-pair or radii runner reads a seed, so none of
    their sweeps derives one."""
    grids = {"three-state": {"omega_s_rad_s": [5e8, 2e9]},
             "radical-pair": {"kappa_s_per_s": [1.0, 2.0]},
             "radii": {"D_cm2_per_s": [1e-6, 2e-6]}}
    sweeps = [(write_config(tmp_path / f"{name}.json", dict(VALID[name], grid=grid)),
               str(tmp_path / name)) for name, grid in grids.items()]
    code = f"""
import contextlib, io, sys
import spinkinetics.cli as cli

with contextlib.redirect_stdout(io.StringIO()):
    for cfg, out in {sweeps!r}:
        assert cli.main(["sweep", cfg, "--out-dir", out, "--workers", "1"]) == 0
print("numpy.random" in sys.modules)
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


class TestFlags:
    @pytest.mark.parametrize("command, flag", [("run", ["--workers", "2"]),
                                               ("sweep", ["--format", "json"]),
                                               ("sweep", ["--workers", "0"])])
    def test_a_flag_the_subcommand_does_not_read_exits_2(self, tmp_path, command, flag):
        config = {"scenario": "radii", "parameters": RADII_PARAMS, "grid": {"Q_per_s": [1e9]}}
        cfg = write_config(tmp_path / "cfg.json", config)
        with pytest.raises(SystemExit) as exc:
            main([command, cfg, "--out-dir", str(tmp_path / "out"), *flag])
        assert exc.value.code == 2  # argparse usage error
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, flag, named", [
        (VALID["radii"], ["--seed", "-1"], "config.seed must be an integer >= 0"),
        (dict(VALID["radii"], output=5), [], "config.output must be an object"),
    ], ids=["negative-seed", "output-not-an-object"])
    def test_a_flag_meets_the_check_of_its_key(self, tmp_path, capsys, config, flag, named):
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out"), *flag]) == EXIT_VALIDATION
        assert json.loads(capsys.readouterr().err.strip())["message"] == named
        assert not (tmp_path / "out").exists()

    def test_a_flag_overrides_its_key_in_the_recorded_inputs(self, tmp_path):
        config = dict(VALID["radii"], seed=3, output={"dir": "elsewhere", "format": "csv"})
        cfg = write_config(tmp_path / "cfg.json", config)
        out = str(tmp_path / "out")
        assert main(["run", cfg, "--out-dir", out, "--seed", "7", "--format", "json"]) == 0
        inputs = read_summary(tmp_path / "out")["inputs"]
        assert (inputs["seed"], inputs["output"]) == (7, {"dir": out, "format": "json"})


class TestOracleScenario:
    def test_summary_reports_rates_and_validity(self, tmp_path):
        config = {
            "scenario": "oracle",
            "seed": 1,
            "parameters": {
                "kind": "ou",
                "variance_rad2_s2": 1e18,
                "tau_c_s": 1e-13,
                "omega_s_rad_s": 0.0,
                "n_traj": 2000,
                "n_spectrum_paths": 1200,
            },
        }
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        results = read_summary(tmp_path / "out")["results"]
        assert results["w11_mc_per_s"] == pytest.approx(2e5, rel=0.1)
        assert abs(results["ratio_w01_w11"] - 0.5) < 0.05
        assert results["validity"]["strong_pass"] is True
        header, rows = read_csv(tmp_path / "out" / "timeseries.csv")
        assert header == ["t_s", "rho_11", "abs_rho_01", "two_re_delta_a"]
        assert float(rows[0][1]) == pytest.approx(1.0)

    def test_seeded_determinism(self, tmp_path):
        config = {
            "scenario": "oracle",
            "parameters": {
                "kind": "dichotomous",
                "variance_rad2_s2": 1e18,
                "tau_c_s": 1e-13,
                "omega_s_rad_s": 0.0,
                "n_traj": 800,
                "n_spectrum_paths": 1000,
            },
        }
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "a"), "--seed", "5"]) == 0
        assert main(["run", cfg, "--out-dir", str(tmp_path / "b"), "--seed", "5"]) == 0
        a = read_summary(tmp_path / "a")["results"]
        b = read_summary(tmp_path / "b")["results"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert (tmp_path / "a" / "timeseries.csv").read_text() == (
            tmp_path / "b" / "timeseries.csv"
        ).read_text()

    def test_a_one_chunk_run_starts_no_pool(self, tmp_path, monkeypatch, pool_sizes):
        set_cpus(monkeypatch, 8)
        cfg = write_config(tmp_path / "cfg.json", with_params("oracle", n_traj=stochastic.CHUNK))
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        assert pool_sizes == []

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_a_run_pools_at_most_one_worker_per_chunk_and_cpu(
        self, tmp_path, monkeypatch, pool_sizes, cpus
    ):
        set_cpus(monkeypatch, cpus)
        config = with_params("oracle", n_traj=THREE_CHUNKS, t_total_s=2e-12)
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        workers = min(cpus, 3)
        assert pool_sizes == ([workers] if workers > 1 else [])

    def test_sweep_points_start_no_pool_of_their_own(self, tmp_path, monkeypatch, pool_sizes):
        set_cpus(monkeypatch, 8)
        config = with_params("oracle", n_traj=THREE_CHUNKS, t_total_s=2e-12)
        config["grid"] = {"omega_s_rad_s": [0.0, 1e13]}
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["sweep", cfg, "--out-dir", str(tmp_path / "out"), "--workers", "2"]) == 0
        assert pool_sizes == [2]  # the sweep's, whose fake workers ran every point here

    def test_a_radical_pair_run_starts_no_pool(self, tmp_path, monkeypatch, pool_sizes):
        set_cpus(monkeypatch, 8)
        cfg = write_config(tmp_path / "cfg.json", VALID["radical-pair"])
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        assert pool_sizes == []

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched noise draw reaches forked workers only")
    def test_a_failing_chunk_exits_4_and_leaves_no_process(self, tmp_path, monkeypatch, capsys):
        draw = stochastic._draw_chunk

        def failing_draw(p, out, stream, index):  # the amplitude stream fails on chunk 1
            if stream == 0 and index == 1:
                raise NumericalError("chunk 1 failed")
            return draw(p, out, stream, index)

        pools = []

        class RecordedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(stochastic, "_draw_chunk", failing_draw)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordedPool)
        set_cpus(monkeypatch, 2)
        config = with_params("oracle", n_traj=THREE_CHUNKS, t_total_s=2e-12)
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == EXIT_NUMERICAL
        assert pools == [2]
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "numerical", "message": "chunk 1 failed"}
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_cross_key_failure_exits_3_before_the_run(self, tmp_path, monkeypatch):
        calls = []
        run_point = cli._run_point
        monkeypatch.setattr(cli, "_run_point", lambda *a: calls.append(a) or run_point(*a))
        config = with_params("oracle", tau_c_s=5e-14)  # dt_s 5e-15 above tau_c / 20
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert calls == []
        assert not (tmp_path / "out").exists()
