"""T1 benchmark: the Table-1 walk-through translation."""
import pytest

from repro.experiments import table1


@pytest.mark.benchmark(group="t1-walkthrough")
def test_table1_walkthrough(benchmark, spark, save_table):
    out = benchmark.pedantic(lambda: table1(spark), rounds=1, iterations=1)
    sem = out["semantics"]
    save_table(sem, "table1.csv")
    events = list(zip(sem["event"], sem["tag"]))
    # The paper's Table-1 trace shape must hold.
    assert ("stay", "Adidas F1") == events[0]
    assert ("stay", "Cashier F1") == events[-1]
    assert ("pass-by", "Nike F1") in events
