"""The BLAS thread budget: lowered for the block, never raised, restored."""

import os

import pytest

from repro.nn import blas


class FakeLibrary:
    def __init__(self, threads):
        self.threads = threads
        self.calls = []

    def set_num_threads(self, count):
        self.calls.append(count)
        self.threads = count

    def get_num_threads(self):
        return self.threads


@pytest.fixture
def fake(monkeypatch):
    """An 8-CPU process whose OpenBLAS runs 8 threads."""
    library = FakeLibrary(8)
    monkeypatch.setattr(blas, "find_openblas", lambda: blas.OpenBLAS(
        "fake", library.set_num_threads, library.get_num_threads))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    return library


@pytest.mark.parametrize("processes, share", [(2, 4), (3, 2), (8, 1),
                                              (16, 1)])
def test_lowers_to_share_and_restores(fake, processes, share):
    with blas.thread_budget(processes) as threads:
        assert threads == share == fake.threads
    assert fake.threads == 8


def test_restores_after_an_error(fake):
    with pytest.raises(RuntimeError):
        with blas.thread_budget(2):
            raise RuntimeError("trial pool failed")
    assert fake.threads == 8


def test_never_raises_a_lower_count(fake):
    fake.threads = 1  # e.g. OPENBLAS_NUM_THREADS=1
    with blas.thread_budget(2) as threads:
        assert threads == 1
    assert fake.calls == []


def test_one_process_leaves_the_count_alone(fake):
    fake.threads = 16
    with blas.thread_budget(1) as threads:
        assert threads == 16
    assert fake.calls == []


def test_no_library_is_a_no_op(monkeypatch):
    monkeypatch.setattr(blas, "find_openblas", lambda: None)
    assert blas.num_threads() is None
    with blas.thread_budget(2) as threads:
        assert threads is None


@pytest.mark.skipif(blas.find_openblas() is None,
                    reason="numpy has no OpenBLAS loaded")
def test_finds_the_library_numpy_loaded():
    library = blas.find_openblas()
    assert "openblas" in os.path.basename(library.path).lower()
    before = library.get_num_threads()
    assert before >= 1
    more_than_cpus = 2 * len(os.sched_getaffinity(0))
    with blas.thread_budget(more_than_cpus) as threads:
        assert threads == 1 == blas.num_threads()
    assert blas.num_threads() == before
