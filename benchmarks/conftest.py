"""Benchmark-local fixtures (the session `spark` fixture comes from the
repo-root conftest)."""
import pathlib

import pytest

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture
def save_table():
    """``save_table(df, name)`` persists a table's rows next to the timing
    output, as ``results/<name>``."""

    def save(df, name):
        RESULTS.mkdir(exist_ok=True)
        df.to_csv(RESULTS / name, index=False)

    return save
