"""T4 benchmark: Complementor inference, MAP vs topology-only at SF=0.1."""
import pytest

from repro.experiments import table4


@pytest.mark.benchmark(group="t4-complement")
def test_table4_complement(benchmark, spark, save_table):
    out = benchmark.pedantic(
        lambda: table4(spark, sf=0.1), rounds=1, iterations=1
    )
    save_table(out, "table4.csv")
    print("\n=== T4: Gap inference on masked transits (SF=0.1) ===")
    print(out.to_string(index=False, float_format=lambda v: f"{v:.3f}"))
    by = out.set_index("system")
    assert by.loc["MAP + knowledge", "path_recovered"] >= by.loc[
        "topology-only", "path_recovered"
    ]
    assert by.loc["MAP + knowledge", "path_recovered"] > 0.6
