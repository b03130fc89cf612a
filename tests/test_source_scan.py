"""Source scans: library code never walks a pandas frame row by row, and
the Spark entry points take data, not tuning knobs."""
import inspect
import pathlib
import re

import pytest

from repro.core import (
    annotate,
    clean,
    complement,
    find_gaps,
    stop_move_baseline,
    translate,
    violation_stats,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def test_no_row_iteration_in_library():
    """Kernels and metrics work on column arrays; ``iterrows`` and
    ``itertuples`` are left to the tests' reference implementations."""
    calls = re.compile(r"\.(iterrows|itertuples)\(")
    offenders = [
        f"{path.relative_to(SRC)}:{n}"
        for path in sorted(SRC.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if calls.search(line)
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "entry",
    [
        translate,
        clean,
        annotate,
        complement,
        violation_stats,
        stop_move_baseline,
        find_gaps,
    ],
    ids=lambda f: f.__name__,
)
def test_spark_entry_points_take_only_data(entry):
    """Each translation constant is read where it is used, so no entry
    point has keyword-only options or ``**kwargs`` to thread through."""
    options = [
        p.name
        for p in inspect.signature(entry).parameters.values()
        if p.kind in (p.KEYWORD_ONLY, p.VAR_KEYWORD)
    ]
    assert options == []
