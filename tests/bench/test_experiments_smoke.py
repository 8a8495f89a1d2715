"""Smoke tests: every experiment runs end-to-end at tiny scale.

These guard the reproduction harness itself — each table/figure module must
build its indexes, generate its workloads, validate against the oracle and
print its series without error.  (The headline *shape* assertions live in
EXPERIMENTS.md and the benchmark suite; here we assert the structural facts
that must hold at any scale.)
"""

import pytest

from repro.bench.config import get_scale, real_collection, synthetic_collection
from repro.bench.experiments import fig8  # noqa: F401  (import-cycle guard)


@pytest.fixture(scope="module", autouse=True)
def _warm_caches():
    # Generating the tiny datasets once keeps the module fast.
    real_collection("eclog", "tiny")
    real_collection("wikipedia", "tiny")


def test_scale_registry():
    scale = get_scale("tiny")
    assert scale.n_real == 1200
    with pytest.raises(Exception):
        get_scale("nope")


def test_synthetic_cache_kwargs():
    a = synthetic_collection("tiny")
    b = synthetic_collection("tiny")
    assert a is b  # lru cache
    c = synthetic_collection("tiny", alpha=1.8)
    assert c is not a


def test_table3(capsys):
    from repro.bench.experiments import table3

    results = table3.run(scale="tiny")
    assert "eclog" in results and "wikipedia" in results
    assert "Cardinality" in capsys.readouterr().out


def test_fig7(capsys):
    from repro.bench.experiments import fig7

    results = fig7.run(scale="tiny")
    assert set(results) == {"eclog", "wikipedia"}
    out = capsys.readouterr().out
    assert "duration percentiles" in out


def test_fig8(capsys):
    results = fig8.run(scale="tiny")
    for kind in ("eclog", "wikipedia"):
        sizes = results[kind]["size_mb"]
        assert sizes == sorted(sizes)  # size grows with slice count
        assert all(tp > 0 for tp in results[kind]["throughput"])


def test_fig9(capsys):
    from repro.bench.experiments import fig9

    results = fig9.run(scale="tiny")
    merge = results["eclog"]["tif-hint-merge"]
    assert merge["size_mb"] == sorted(merge["size_mb"])  # grows with m
    # Binary and merge variants coincide in size at equal m (Figure 9).
    binary = results["eclog"]["tif-hint-binary"]
    assert binary["size_mb"] == merge["size_mb"]


def test_table5(capsys):
    from repro.bench.experiments import table5

    results = table5.run(scale="tiny")
    # The two lean designs contend for the smallest index (in the paper,
    # sharding wins ECLOG and irHINT-size wins WIKIPEDIA); both must beat
    # the replicating IR-first structures.
    for kind in ("eclog", "wikipedia"):
        sizes = {key: row[f"size_{kind}"] for key, row in results.items()}
        assert min(sizes, key=sizes.get) in ("tif-sharding", "irhint-size")
        lean = max(sizes["tif-sharding"], sizes["irhint-size"])
        assert lean < sizes["tif-slicing"]
        assert lean < sizes["tif-hint-slicing"]


def test_fig10(capsys):
    from repro.bench.experiments import fig10

    results = fig10.run(scale="tiny")
    for kind in ("eclog", "wikipedia"):
        for variant, row in results[kind].items():
            assert row["|q.d|=1"] > 0


def test_fig11(capsys):
    from repro.bench.experiments import fig11

    results = fig11.run(scale="tiny")
    for kind in ("eclog", "wikipedia"):
        for method, row in results[kind].items():
            assert row["extent=stab"] > 0
            assert row["_size_mb"] > 0


def test_table6_and_7(capsys):
    from repro.bench.experiments import table6, table7

    inserts = table6.run(scale="tiny")
    deletes = table7.run(scale="tiny")
    for results in (inserts, deletes):
        for method, row in results.items():
            for value in row.values():
                assert value > 0
            # Bigger batches take longer (within measurement noise, the 10x
            # batch must beat the 1x batch).
            assert row["eclog_0.1"] > row["eclog_0.01"] * 0.5
