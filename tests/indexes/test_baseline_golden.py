"""The IR-first baselines' counts, pinned to those of their list-based
implementation.

``baseline_golden.json`` was recorded at commit a84420b, where tIF+Slicing,
tIF+Sharding and the hybrid kept their own Python-list containers (and
Sharding its own build).  On a fresh build over the running example and
the random collection, each method must still report, query by query,
the answer size, its ``relevant_slices`` or ``impact_list_skips`` and
every phase's entries scanned, structures touched and candidates left;
and the modelled size and replication (Table 5's model) before and after
those queries.  Sharding's size counts every shard's impact list from the
build on, so its fresh figure is the one the list-based implementation
reported only once queries had made each list.  Sharding's shards, ids in order, must be the ones that
build cut from the shard-construction fixtures.
"""

import json
from pathlib import Path

import pytest

from repro.core.collection import Collection
from repro.core.model import make_object, make_query
from repro.indexes.explain import explain
from repro.indexes.registry import build_index

GOLDEN = json.loads((Path(__file__).with_name("baseline_golden.json")).read_text())

#: The shard-construction fixtures of ``test_tif_family.py``, as entries.
FIXTURES = {
    "staircase": [(1, 0, 10), (2, 1, 5), (3, 2, 12), (4, 3, 4), (5, 6, 20)],
    "decreasing": [(i, i, 100 - i) for i in range(5)],
    "perfect": [(i, i, 100 + i) for i in range(5)],
    "merge": [(i, i, 200 - 2 * i) for i in range(20)],
}


@pytest.mark.parametrize("config", sorted(GOLDEN["indexes"]))
def test_fresh_build_counts_match_the_list_implementation(config, request):
    collection_name, key, params = config.split("/", 2)
    collection: Collection = request.getfixturevalue(collection_name)
    index = build_index(key, collection, **json.loads(params))
    want = GOLDEN["indexes"][config]
    assert index.size_bytes() == want["size_bytes"]
    if "n_replicated_entries" in want:
        assert index.n_replicated_entries() == want["n_replicated_entries"]
    for (st, end, d), size, skips_or_slices, phases in want["explain"]:
        q = make_query(st, end, set(d))
        explanation = explain(index, q)
        detail = explanation.detail
        got = detail.get("relevant_slices", detail.get("impact_list_skips"))
        assert explanation.result_size == size, q
        assert got == skips_or_slices, q
        assert [
            [p.entries_scanned, p.structures_touched, p.candidates_after]
            for p in explanation.phases
        ] == phases, q
    assert index.size_bytes() == want["size_bytes_after_queries"]


@pytest.mark.parametrize("max_shards", ["16", "4"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_shards_are_the_list_builds(name, max_shards):
    objects = [make_object(i, st, end, {"a"}) for i, st, end in FIXTURES[name]]
    index = build_index("tif-sharding", objects, max_shards=int(max_shards))
    shards = [list(shard.ids) for shard in index._shards["a"]]
    assert shards == GOLDEN["fixture_shards"][name][max_shards]
