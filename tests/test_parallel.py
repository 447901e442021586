"""Tests for the worker count policy of the parallel map."""

import os

import pytest

from lattice_spectra.errors import InputError
from lattice_spectra.parallel import ENV_VAR, worker_count


def test_default_is_core_count(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert worker_count() == (os.cpu_count() or 1)


def test_env_value_capped_at_core_count(monkeypatch):
    # only the count is computed here; no pool is started with it
    monkeypatch.setenv(ENV_VAR, "100000")
    assert worker_count() == (os.cpu_count() or 1)


def test_env_value_below_core_count_kept(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "1")
    assert worker_count() == 1


@pytest.mark.parametrize("raw", ["two", "1.5", "", "0", "-3"])
def test_bad_env_value_is_input_error(monkeypatch, raw):
    monkeypatch.setenv(ENV_VAR, raw)
    with pytest.raises(InputError, match=ENV_VAR):
        worker_count()

