"""Source scan: library code never walks a pandas frame row by row."""
import pathlib
import re

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
