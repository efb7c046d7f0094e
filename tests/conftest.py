"""Fixtures shared by the test modules."""

import multiprocessing

import pytest


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
