"""T2 benchmark: Cleaning layer sweep at SF=0.1 (prints the table)."""
import pytest

from repro.experiments import table2


@pytest.mark.benchmark(group="t2-cleaning")
def test_table2_cleaning(benchmark, spark, save_table):
    out = benchmark.pedantic(
        lambda: table2(spark, sf=0.1), rounds=1, iterations=1
    )
    save_table(out, "table2.csv")
    print("\n=== T2: Cleaning quality vs noise (SF=0.1) ===")
    print(out.to_string(index=False, float_format=lambda v: f"{v:.3f}"))
    # The cleaner must reduce planar error, floor errors and violations
    # at every noise level.
    assert (out["mean_err_clean"] <= out["mean_err_raw"]).all()
    assert (out["floor_err_clean"] < out["floor_err_raw"]).all()
    assert (out["violations_clean"] < out["violations_raw"]).all()
