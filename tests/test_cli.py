import copy
import csv
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinkinetics import cli, radical_pair
from spinkinetics.cli import (
    EXIT_NUMERICAL,
    EXIT_PARSE,
    EXIT_VALIDATION,
    ConfigError,
    _normalize_config,
    _sweep_tasks,
    main,
)

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
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_one_bad_value_is_a_config_error(self, scenario, data):
        config = copy.deepcopy(VALID[scenario])
        path = data.draw(st.sampled_from(sorted(self.key_paths(config))))
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(self.JUNK)
        try:
            _normalize_config(config, sweep=False)
        except ConfigError:
            pass


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

    def test_single_point_grid_matches_run(self, tmp_path):
        params = dict(RADII_PARAMS)
        run_cfg = write_config(
            tmp_path / "run.json", {"scenario": "radii", "parameters": params}
        )
        sweep_cfg = write_config(
            tmp_path / "sweep.json",
            {
                "scenario": "radii",
                "parameters": params,
                "grid": {"Q_per_s": [1e9]},
            },
        )
        assert main(["run", run_cfg, "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["sweep", sweep_cfg, "--out-dir", str(tmp_path / "b")]) == 0
        summary = read_summary(tmp_path / "a")
        header, rows = read_csv(tmp_path / "b" / "sweep.csv")
        col = header.index("l_ST_minus_d_cm")
        assert float(rows[0][col]) == summary["results"]["l_ST_minus_d_cm"]

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

    def test_point_seeds_do_not_repeat_across_master_seeds(self):
        def seeds(master):
            config = {"scenario": "radii", "seed": master, "parameters": RADII_PARAMS,
                      "grid": {"D_cm2_per_s": [1e-6, 2e-6, 5e-6]}}
            return [task[3] for task in _sweep_tasks(config)]

        a, b = seeds(3), seeds(3 + 7919)
        assert len(set(a + b)) == 6
        assert seeds(3) == a

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

    def test_pool_is_no_larger_than_the_grid(self, tmp_path, monkeypatch):
        sizes = []

        class SerialPool:  # records the pool size and starts no process
            def __init__(self, max_workers, initializer=None, initargs=()):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        config = {
            "scenario": "radii",
            "parameters": RADII_PARAMS,
            "grid": {"D_cm2_per_s": [1e-6, 2e-6, 5e-6]},
        }
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["sweep", cfg, "--out-dir", str(tmp_path / "out"), "--workers", "64"]) == 0
        assert all(n <= 3 for n in sizes)

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
    not cli._blas_threads() or (os.cpu_count() or 1) < 2,
    reason="needs OpenBLAS thread control and two CPUs",
)


@needs_pool
class TestSweepPool:
    def test_three_state_rows_match_serial_bit_for_bit(self, tmp_path):
        config = with_params("three-state", observables=["rho_11"])
        config["grid"] = {"omega_s_rad_s": [5e8, 1e9, 2e9],
                          "spectral_density.tau_c_s": [5e-11, 2e-10]}
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
            return {"threads": list(cli._blas_threads().values())}, None

        monkeypatch.setattr(cli, "_run_point", thread_counts)
        config = {"scenario": "radii", "parameters": RADII_PARAMS,
                  "grid": {"D_cm2_per_s": [1e-6, 2e-6, 5e-6, 1e-5]}}
        cfg = write_config(tmp_path / "cfg.json", config)
        before = cli._blas_threads(2)  # more than one, so pinning shows
        try:
            assert set(cli._blas_threads().values()) == {2}
            assert main(["sweep", cfg, "--out-dir", str(tmp_path / "out"), "--workers", "2"]) == 0
            after = cli._blas_threads()
        finally:
            cli._blas_threads(before)
        assert set(after.values()) == {2}
        header, rows = read_csv(tmp_path / "out" / "sweep.csv")
        columns = [i for i, name in enumerate(header) if name.startswith("threads[")]
        assert len(columns) == len(after)
        assert {row[i] for row in rows for i in columns} == {"1"}


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

    def test_cross_key_failure_exits_3_before_the_run(self, tmp_path, monkeypatch):
        calls = []
        run_point = cli._run_point
        monkeypatch.setattr(cli, "_run_point", lambda *a: calls.append(a) or run_point(*a))
        config = with_params("oracle", tau_c_s=5e-14)  # dt_s 5e-15 above tau_c / 20
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert calls == []
        assert not (tmp_path / "out").exists()
