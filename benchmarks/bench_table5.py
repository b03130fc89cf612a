"""T5 benchmark: end-to-end translation throughput across scale factors."""
import pytest

from repro.experiments import table5


@pytest.mark.benchmark(group="t5-scalability")
def test_table5_scalability(benchmark, spark, save_table):
    out = benchmark.pedantic(
        lambda: table5(spark, sfs=(0.01, 0.05, 0.1)), rounds=1, iterations=1
    )
    save_table(out, "table5.csv")
    print("\n=== T5: End-to-end translation throughput ===")
    print(out.to_string(index=False, float_format=lambda v: f"{v:.2f}"))
    # Semantics must be at least an order of magnitude more condensed
    # than the raw records, and throughput must not collapse with scale.
    assert (out["condensation"] > 10).all()
    t_small = out.set_index("sf").loc[0.01, "records_per_s"]
    t_large = out.set_index("sf").loc[0.1, "records_per_s"]
    assert t_large > t_small  # fixed Spark overhead amortizes with scale
