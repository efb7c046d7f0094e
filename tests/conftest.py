"""Fixtures shared by the test modules."""

import multiprocessing

import pytest

from qspectra import reports


@pytest.fixture(autouse=True)
def no_shared_prism_facts():
    """Every test starts without the prism facts that the two tables share
    within a process, so that it counts and patches solves of its own."""
    reports._prism_facts.cache_clear()


@pytest.fixture
def pool_sizes(monkeypatch):
    """The process count of every multiprocessing.Pool started, in order;
    the pools themselves are real."""
    sizes = []
    pool = multiprocessing.Pool

    def recorded_pool(processes):
        sizes.append(processes)
        return pool(processes)

    monkeypatch.setattr(multiprocessing, "Pool", recorded_pool)
    return sizes
