"""Dense Liouville-space linear algebra runs on one OpenBLAS thread."""

import os
import threading

import numpy as np
import pytest
from _util import random_hermitian

from spinkinetics import (
    BasisLabel,
    DensityMatrix,
    OperatorMatrix,
    Superoperator,
    assemble_generator,
    infinite_time_integral,
    liouville,
    propagate,
)
from spinkinetics._blas import THREADED_DIM, one_thread, threads

pytestmark = pytest.mark.skipif(
    not threads() or (os.cpu_count() or 1) < 2,
    reason="needs OpenBLAS thread control and two CPUs",
)


@pytest.fixture
def two_threads():
    """Every loaded OpenBLAS copy on two threads, so one-thread blocks show."""
    before = threads(2)
    yield
    threads(before)


def counts():
    return set(threads().values())


@pytest.fixture
def expm_threads(monkeypatch):
    """The OpenBLAS thread counts at each matrix exponential of a propagation."""
    seen = []
    exponential = liouville.expm

    def recorded(a):
        seen.append(counts())
        return exponential(a)

    monkeypatch.setattr(liouville, "expm", recorded)
    return seen


def generator(n, decay=0.0):
    """-i[H, .] - decay on an n-state basis: an n^2 x n^2 supermatrix."""
    basis = BasisLabel(tuple(f"s{i}" for i in range(n)))
    h = OperatorMatrix(basis, random_hermitian(n, np.random.default_rng(n)), hermitian=True)
    return assemble_generator(h) - decay * Superoperator.identity(basis)


@pytest.mark.usefixtures("two_threads")
class TestOneThread:
    def test_a_block_runs_on_one_thread_and_restores_the_count(self):
        with one_thread(THREADED_DIM):
            assert counts() == {1}
        assert counts() == {2}

    def test_matrices_too_small_to_thread_leave_the_count(self):
        with one_thread(THREADED_DIM - 1):
            assert counts() == {2}

    def test_a_failing_block_restores_the_count(self):
        with pytest.raises(ZeroDivisionError), one_thread(THREADED_DIM):
            1 / 0
        assert counts() == {2}

    def test_nested_blocks_restore_when_the_outer_closes(self):
        with one_thread(THREADED_DIM):
            with one_thread(THREADED_DIM):
                pass
            assert counts() == {1}
        assert counts() == {2}

    def test_overlapping_blocks_in_two_threads_restore_when_the_last_closes(self):
        entered, release = threading.Event(), threading.Event()

        def other():
            with one_thread(THREADED_DIM):
                entered.set()
                release.wait(10)

        worker = threading.Thread(target=other)
        with one_thread(THREADED_DIM):
            worker.start()
            assert entered.wait(10)
        assert counts() == {1}  # the other thread's block is still open
        release.set()
        worker.join(10)
        assert counts() == {2}


@pytest.mark.usefixtures("two_threads")
class TestLiouvilleSpace:
    def test_propagate_steps_a_64_by_64_generator_on_one_thread(self, expm_threads):
        gen = generator(8)
        propagate(gen, DensityMatrix.basis_state(gen.basis, "s0"), [0.5, 1.0])
        assert expm_threads == [{1}]
        assert counts() == {2}

    def test_a_9_by_9_generator_keeps_the_count(self, expm_threads):
        gen = generator(3)
        propagate(gen, DensityMatrix.basis_state(gen.basis, "s0"), [0.5])
        assert expm_threads == [{2}]

    def test_norm_and_infinite_time_integral_run_on_one_thread(self, monkeypatch):
        gen = generator(8, decay=1.0)
        seen = []
        solve, norm = np.linalg.solve, np.linalg.norm

        def recorded(f):
            def call(a, *args, **kwargs):
                if np.shape(a) == (64, 64):
                    seen.append((f.__name__, counts()))
                return f(a, *args, **kwargs)
            return call

        monkeypatch.setattr(np.linalg, "solve", recorded(solve))
        monkeypatch.setattr(np.linalg, "norm", recorded(norm))
        assert gen.norm() > 0.0
        infinite_time_integral(gen, DensityMatrix.basis_state(gen.basis, "s0"))
        assert seen == [("norm", {1}), ("norm", {1}), ("solve", {1})]
        assert counts() == {2}
