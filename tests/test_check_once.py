"""A value is checked where it enters the package, not again downstream.

The counts are of calls, not of time. The three-state couplings are module
constants, measured once at import, so a three-state point measures none of
them; frequency_decompose measures and diagonalises H once per Hamiltonian,
and sweep points with equal (omega0, omega_s) share that; the CLI builds each
initial state once per name and shares it between points. The radical-pair
reaction superoperator is built from fixed projectors and measures nothing,
and is summed on raw arrays, so each build checks one finished matrix. A
radical-pair run builds it three times, once per generator: its rates are read
off the model, and the validity check builds one more only when it has a tau_c.
A propagation on a linspace grid computes one matrix exponential.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from golden.regen import produce

from spinkinetics import bloch_redfield, cli, liouville
from spinkinetics.bloch_redfield import (
    BathSpec,
    CouplingOperator,
    Lorentzian,
    relaxation_supermatrix,
)
from spinkinetics.cli import main
from spinkinetics.liouville import BasisLabel, DensityMatrix, OperatorMatrix
from spinkinetics.radical_pair import ReactionModel, reaction_supermatrix
from spinkinetics.three_state import COUPLINGS, THREE_STATE_BASIS, ThreeStateParams, build_bath


@pytest.fixture
def defect_calls(monkeypatch):
    calls = []
    measure = liouville.hermitian_defect

    def counted(a):
        calls.append(a)
        return measure(a)

    monkeypatch.setattr(liouville, "hermitian_defect", counted)
    return calls


def test_one_three_state_point_measures_hermiticity_at_most_nine_times(defect_calls):
    spectrum = Lorentzian(amplitude=1e17, tau_c=1e-10)
    p = ThreeStateParams(omega0=0.0, omega_s=1e9, beta=1e-9, transverse=spectrum,
                         splitting=Lorentzian(amplitude=5e16, tau_c=1e-10), isotropic=True)
    h, bath = build_bath(p)
    relaxation_supermatrix(bath, h)
    DensityMatrix.pure(THREE_STATE_BASIS, [0, 1, 0])
    assert len(defect_calls) <= 9


@pytest.fixture
def fresh_memos():
    """No Hamiltonian diagonalised and no initial state built before the test."""
    bloch_redfield._bohr_bins.cache_clear()
    bloch_redfield._eigenbasis_coupling.cache_clear()
    cli._initial_state.cache_clear()


def test_three_state_points_measure_no_coupling_and_h_once_per_hamiltonian(defect_calls,
                                                                          fresh_memos):
    spectrum = Lorentzian(amplitude=1e17, tau_c=1e-10)
    p = ThreeStateParams(omega0=0.0, omega_s=1e9, beta=1e-9, transverse=spectrum,
                         splitting=Lorentzian(amplitude=5e16, tau_c=1e-10), isotropic=True)
    h, bath = build_bath(p)
    assert defect_calls == []  # the x, y, z and 0-1 couplings were measured at import
    relaxation_supermatrix(bath, h)
    assert len(defect_calls) == 1  # H, once for its four couplings
    h, bath = build_bath(replace(p, beta=1e-8))
    relaxation_supermatrix(bath, h)
    assert len(defect_calls) == 1  # equal (omega0, omega_s): the same H
    h, bath = build_bath(replace(p, omega_s=2e9))
    relaxation_supermatrix(bath, h)
    assert len(defect_calls) == 2


def test_a_three_state_sweep_measures_each_hamiltonian_and_builds_each_state_once(
    defect_calls, fresh_memos, tmp_path
):
    # the serial 2 x 2 grid over omega_s and beta: two Hamiltonians and one
    # initial state, against 4 x (4 couplings + H + state) = 24 when each point
    # measured its own
    produce("sweep-workers-1", tmp_path)
    traces = sorted(float(np.trace(a).real) for a in defect_calls)
    assert traces == pytest.approx([0.0, 0.0, 1.0])  # H, H, state


@pytest.mark.parametrize("model", [ReactionModel.haberkorn(2.0, 1.0),
                                   ReactionModel.generalized(2.0, 1.0, 0.5)])
def test_the_reaction_superoperator_measures_no_hermiticity(defect_calls, model):
    reaction_supermatrix(model)
    assert defect_calls == []


@pytest.fixture
def checked_arrays(monkeypatch):
    calls = []
    check = liouville._checked_entries

    def counted(entries, side, what):
        calls.append(what)
        return check(entries, side, what)

    monkeypatch.setattr(liouville, "_checked_entries", counted)
    return calls


@pytest.mark.parametrize("tau_c, arrays, supermatrices",
                         [(None, 11, 6), (1e-13, 12, 7)], ids=["no-tau_c", "tau_c"])
def test_one_radical_pair_run_checks_each_array_once(checked_arrays, tmp_path, tau_c,
                                                     arrays, supermatrices):
    cli._initial_state.cache_clear()  # so the run builds its initial state
    # 3 reaction superoperators and 3 generators (one each for the coherence
    # fit, the yields and the series), 3 Hamiltonians, 1 initial state and the
    # resolvent's integral; the validity check adds its own K only with a tau_c
    params = {"variant": "jones_hore", "kappa_s_per_s": 2e9, "kappa_t_per_s": 6e8,
              "omega_mean_rad_s": 3e9, "delta_omega_rad_s": 1e9,
              "j_exchange_rad_s": 4e8, "initial_state": "superposition_ST0",
              "time_grid": {"t_max_s": 5e-9, "n_points": 201},
              "compute_yields": True}
    if tau_c is not None:
        params["tau_c_s"] = tau_c
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "radical-pair", "parameters": params}),
                    encoding="utf-8")
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    assert len(checked_arrays) == arrays
    assert checked_arrays.count("supermatrix") == supermatrices


@pytest.mark.parametrize("case, calls", [("radical-pair-csv", 2), ("sweep-workers-1", 4)])
def test_each_propagation_on_a_linspace_computes_one_exponential(expm_calls, tmp_path,
                                                                 case, calls):
    # the radical-pair run propagates for the coherence fit and the series;
    # the serial sweep once per point of its 2 x 2 grid
    produce(case, tmp_path)
    assert len(expm_calls) == calls


def test_building_baths_leaves_the_shared_couplings_untouched():
    before = {label: (c.matrix, c.matrix.entries.copy()) for label, c in COUPLINGS.items()}
    spectrum = Lorentzian(amplitude=1e17, tau_c=1e-10)
    for isotropic in (False, True):
        for splitting in (None, Lorentzian(amplitude=5e16, tau_c=1e-10)):
            _, bath = build_bath(ThreeStateParams(omega0=0.0, omega_s=1e9, beta=1e-9,
                                                  transverse=spectrum, splitting=splitting,
                                                  isotropic=isotropic))
            labels = ["x", "y"] + ["z"] * isotropic + ["01"] * (splitting is not None)
            assert [c.label for c in bath.couplings] == labels
            assert [c.spectral_index for c in bath.couplings] == list(range(len(labels)))
            assert all(c is not COUPLINGS[c.label] for c in bath.couplings)
    for label, c in COUPLINGS.items():
        matrix, entries = before[label]
        assert c.spectral_index == 0 and c.matrix is matrix
        assert not matrix.entries.flags.writeable
        assert np.array_equal(matrix.entries, entries)


def test_uncorrelated_bath_leaves_the_callers_couplings_untouched():
    basis = BasisLabel(("a", "b"))
    couplings = [CouplingOperator(name, OperatorMatrix(basis, m), 5)
                 for name, m in (("x", [[0, 1], [1, 0]]), ("z", np.diag([1.0, -1.0])))]
    spectra = [Lorentzian(amplitude=1.0, tau_c=1.0), Lorentzian(amplitude=2.0, tau_c=1.0)]
    bath = BathSpec.uncorrelated(couplings, spectra, beta=1.0)
    assert [c.spectral_index for c in couplings] == [5, 5]
    assert [c.spectral_index for c in bath.couplings] == [0, 1]
    assert [c.label for c in bath.couplings] == ["x", "z"]
    assert bath.density(1, 1) == spectra[1]
