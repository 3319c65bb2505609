"""The Arrow ``dedup_partition`` kernel of the crawl's write path, and the
crawl's output under changes of block layout and operator scheduling.

The kernel is checked against the pandas ``dedup_partition`` it replaced
(copied below as the reference): same rows, same order, and of duplicate
triples the same (first) occurrence kept."""

import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st
from ray.data import DataContext

from dug_ray.stages.expand import TRIPLE_SCHEMA
from dug_ray.stages.materialize import dedup_partition, materialize_graph

COLS = TRIPLE_SCHEMA.names
# ASCII next to multi-byte UTF-8 (2, 3 and 4 bytes), the empty string and null
KEY = st.one_of(st.none(), st.sampled_from(["", "a", "B", "ab", "é", "Ж", "日本", "🙂"]))
TEXT = st.one_of(st.none(), st.text(alphabet="xyé🙂", max_size=2))


def reference(part: pa.Table) -> pa.Table:
    """The pandas ``dedup_partition`` the kernel replaced, with its result
    converted the way the write path converted it."""
    df = part.to_pandas()
    df = df.drop(columns=["subj_bucket"])
    for c in df.columns:
        if isinstance(df[c].dtype, pd.CategoricalDtype):
            df[c] = df[c].astype(object)
    df = df.drop_duplicates(subset=["subj", "pred", "obj"])
    df = df.sort_values(["subj", "pred", "obj"], kind="mergesort")
    return pa.Table.from_pandas(df, preserve_index=False).cast(TRIPLE_SCHEMA)


def partition(rows, encode=(), split=None):
    """A partition table: ``rows`` of (subj, pred, obj, obj_name,
    source_query), the columns in ``encode`` dictionary-encoded, and every
    column chunked at ``split`` (each chunk with its own dictionary)."""
    def build(rs):
        cols = {c: pa.array([r[i] for r in rs], pa.string()) for i, c in enumerate(COLS)}
        cols = {c: a.dictionary_encode() if c in encode else a for c, a in cols.items()}
        return pa.table({**cols, "subj_bucket": pa.array([0] * len(rs), pa.int32())})

    if split is None:
        return build(rows)
    head, tail = build(rows[:split]), build(rows[split:])
    return pa.Table.from_batches(head.to_batches() + tail.to_batches(), schema=head.schema)


def check(part):
    got = dedup_partition(part)
    assert got.schema == TRIPLE_SCHEMA
    assert got.to_pylist() == reference(part).to_pylist()
    return got.to_pylist()


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(KEY, st.sampled_from(["p", "q", "é"]), KEY, TEXT, TEXT),
                min_size=1, max_size=40),
       st.sets(st.sampled_from(COLS)),
       st.integers(min_value=0, max_value=40))
def test_dedup_partition_matches_pandas(rows, encode, split):
    check(partition(rows, encode))
    check(partition(rows, encode, split=min(split, len(rows))))


@pytest.mark.parametrize("encode", [(), tuple(COLS)])
def test_first_occurrence_kept(encode):
    rows = [("s", "p", "o", "second-name", "q2"),
            ("s", "p", "o", "first-name", "q1"),
            ("s", "p", "o", "first-name", "q3")]
    # input order decides: the first row of the partition wins
    got = check(partition(rows, encode))
    assert got == [dict(zip(COLS, rows[0]))]
    # also when the duplicates sit in different chunks
    got = check(partition(rows[::-1], encode, split=1))
    assert got == [dict(zip(COLS, rows[2]))]


@pytest.mark.parametrize("encode", [(), tuple(COLS)])
def test_key_change_in_pred_or_obj_only(encode):
    rows = [("s", "q", "o", "", ""), ("s", "p", "o2", "", ""),
            ("s", "p", "o", "", ""), ("s", "p", "o", "dup", "")]
    got = check(partition(rows, encode))
    assert [(r["pred"], r["obj"], r["obj_name"]) for r in got] == \
        [("p", "o", ""), ("p", "o2", ""), ("q", "o", "")]


def test_non_ascii_orders_by_utf8_bytes():
    subjects = ["é", "z", "日本", "🙂", "Z", "e"]
    got = check(partition([(s, "p", "o", "", "") for s in subjects], ("subj",)))
    assert [r["subj"] for r in got] == sorted(subjects, key=str.encode)


def test_single_and_empty_partition():
    row = ("s", "p", "o", "n", "q")
    assert check(partition([row])) == [dict(zip(COLS, row))]
    assert check(partition([row], tuple(COLS))) == [dict(zip(COLS, row))]
    assert dedup_partition(partition([])).num_rows == 0


@pytest.mark.parametrize("encode", [(), tuple(COLS)])
def test_null_keys_equal_and_last(encode):
    rows = [(None, "p", "o", "a", ""), ("s", "p", None, "b", ""),
            (None, "p", "o", "dup", ""), ("s", "p", "o", "c", ""),
            ("s", "p", None, "dup", "")]
    got = check(partition(rows, encode, split=2))
    assert [(r["subj"], r["obj"], r["obj_name"]) for r in got] == \
        [("s", "o", "c"), ("s", None, "b"), (None, "o", "a")]


def test_null_dictionary_value_equals_null_index():
    """A null can sit in a dictionary or as a null index; both are one key.
    (pandas cannot convert such a column, so there is no reference here.)"""
    subj = pa.DictionaryArray.from_arrays(pa.array([0, None, 1], pa.int32()),
                                          pa.array([None, "s"]))
    n = len(subj)
    part = pa.table({"subj": subj, "pred": pa.array(["p"] * n), "obj": pa.array(["o"] * n),
                     "obj_name": pa.array(["x", "y", "z"]), "source_query": pa.array([""] * n),
                     "subj_bucket": pa.array([0] * n, pa.int32())})
    got = dedup_partition(part).to_pylist()
    assert [(r["subj"], r["obj_name"]) for r in got] == [("s", "z"), (None, "x")]


# --------------------------------------------------------------------------
# the crawl's output does not depend on block layout or operator scheduling
# --------------------------------------------------------------------------

def _fingerprints(out):
    from dug_ray.state.manifest import PartitionManifest
    # bucket id -> (rows, md5 of the part file); the layout entry has no rows
    return {k: (v["rows"], v.get("fingerprint", ""))
            for k, v in PartitionManifest(out).load().items() if "rows" in v}


def test_crawl_output_independent_of_blocks_and_reservation(sf_smoke, tmp_path):
    """One block, 16 blocks, and the streaming crawl with Ray Data's
    per-operator resource reservation on: every bucket's part file is
    byte-identical."""
    from dug_ray.io import read_interleaved
    from dug_ray.pipelines import kg
    from dug_ray.stages.parse import parse_elements

    ctx = DataContext.get_current()
    saved = ctx.op_resource_reservation_enabled
    try:
        # a Dataset keeps the context it was created under: set it first
        ctx.op_resource_reservation_enabled = True
        materialize_graph(kg.triples(read_interleaved(sf_smoke), parse_elements),
                          str(tmp_path / "reserved"), resume=False)
        ctx.op_resource_reservation_enabled = False
        triples = pa.concat_tables(ray.get(
            kg.triples(read_interleaved(sf_smoke), parse_elements).to_arrow_refs()))
        materialize_graph(ray.data.from_arrow(triples), str(tmp_path / "one"), resume=False)
        materialize_graph(ray.data.from_arrow(triples).repartition(16),
                          str(tmp_path / "sixteen"), resume=False)
    finally:
        ctx.op_resource_reservation_enabled = saved
    fps = {name: _fingerprints(str(tmp_path / name)) for name in ("reserved", "one", "sixteen")}
    assert sum(rows > 0 for rows, _ in fps["one"].values()) > 1
    assert fps["one"] == fps["sixteen"] == fps["reserved"]
