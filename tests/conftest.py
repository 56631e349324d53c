import os
import sys
import tracemalloc

import pytest

sys.path.insert(0, os.path.dirname(__file__))


def pytest_collection_modifyitems(config, items):
    if os.environ.get("EK_RUN_EXTENDED") == "1":
        return
    skip = pytest.mark.skip(reason="extended check; set EK_RUN_EXTENDED=1")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def gammak_cells():
    """(q, k_max) -> [oracles.gammak_aq(k, a, q)] in the table's order
    (index k*q + a - 1), one cell at a time; each table is computed once
    per session."""
    from oracles import gammak_aq
    tables = {}

    def cells(q: int, k_max: int) -> list:
        if (q, k_max) not in tables:
            tables[(q, k_max)] = [gammak_aq(k, a, q)
                                  for k in range(k_max + 1)
                                  for a in range(1, q + 1)]
        return tables[(q, k_max)]

    return cells


@pytest.fixture
def traced_peak():
    """peak(fn, *args, **kwargs): fn's result, and the tracemalloc peak in
    bytes of what was allocated while it ran."""
    def peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
