"""Tests of the order-preserving thread map: every item once, results in
input order, and an item's exception raised in the caller."""

import sys
import threading
import time

import pytest

from lattice_spectra import parallel


@pytest.fixture
def eight_workers(monkeypatch):
    """More workers than cores, and a short switch interval, so that the
    workers interleave often."""
    monkeypatch.setattr(parallel, "worker_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_each_item_once_in_input_order(eight_workers):
    seen, threads = [], set()

    def square(x):
        seen.append(x)
        threads.add(threading.get_ident())
        time.sleep(1e-4)  # lets the other workers start
        return x * x

    items = list(range(300))
    assert parallel.parallel_map(square, items) == [x * x for x in items]
    assert sorted(seen) == items
    assert len(threads) > 1


def test_first_failure_in_input_order_is_raised(eight_workers):
    def check(x):
        if x in (7, 300):
            raise ValueError(f"item {x}")
        return x

    before = threading.active_count()
    with pytest.raises(ValueError, match="item 7"):
        parallel.parallel_map(check, range(400))
    assert threading.active_count() == before
