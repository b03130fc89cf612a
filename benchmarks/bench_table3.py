"""T3 benchmark: Annotation quality, TRIPS vs baselines at SF=0.1."""
import pytest

from repro.experiments import table3


@pytest.mark.benchmark(group="t3-annotation")
def test_table3_annotation(benchmark, spark, save_table):
    out = benchmark.pedantic(
        lambda: table3(spark, sf=0.1), rounds=1, iterations=1
    )
    save_table(out, "table3.csv")
    print("\n=== T3: Annotation quality on held-out devices (SF=0.1) ===")
    print(out.to_string(index=False, float_format=lambda v: f"{v:.3f}"))
    for _sigma, grp in out.groupby("sigma_m"):
        by = grp.set_index("system")
        # TRIPS must beat the GPS-style stop/move baseline across the
        # board at every noise level, and cleaning must not hurt.
        assert by.loc["TRIPS", "macro_f1"] > by.loc["stop/move [12]", "macro_f1"]
        assert by.loc["TRIPS", "event_acc"] > by.loc["stop/move [12]", "event_acc"]
        assert by.loc["TRIPS", "macro_f1"] >= by.loc["no-cleaning", "macro_f1"] - 0.02
