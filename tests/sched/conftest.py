"""A tested bound for every scheduler run in this package."""

import pytest


@pytest.fixture(autouse=True)
def _bounded(lock_table_empty_after_run):
    """Every test here runs under ``lock_table_empty_after_run``."""
