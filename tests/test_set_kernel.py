"""The sorted-distinct ``|``-joined set kernel (``shuffle.join_distinct``)
and ``element_terms``, which is built on it.

The kernel is checked against a pure-Python ``"|".join(sorted(set(vals)))``
reference and against DuckDB's ``string_agg(DISTINCT v, '|' ORDER BY v)``
(the form every set oracle uses); ``element_terms`` must not depend on how
its input is split into blocks."""

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st

from dug_ray.shuffle import (bucketed_table_apply, join_distinct, split_joined,
                             union_joined)

KEYS = ["k1", "k2"]
# ASCII next to multi-byte UTF-8 (2, 3 and 4 bytes) and the empty string
VALUE = st.one_of(st.none(), st.text(alphabet="aZz0éäßЖ日本語🙂", max_size=3))


def reference(rows):
    """{(k1, k2): "|".join(sorted(set(non-null values)))}."""
    groups = {}
    for k1, k2, v in rows:
        groups.setdefault((k1, k2), set())
        if v is not None:
            groups[(k1, k2)].add(v)
    return {k: "|".join(sorted(vs)) for k, vs in groups.items()}


def table(rows, split=None):
    t = pa.table({"k1": pa.array([r[0] for r in rows], pa.string()),
                  "k2": pa.array([r[1] for r in rows], pa.string()),
                  "v": pa.array([r[2] for r in rows], pa.string())})
    if split is None:
        return t
    # the same rows as a table whose columns are chunked at ``split``
    return pa.Table.from_batches(t.slice(0, split).to_batches()
                                 + t.slice(split).to_batches(), schema=t.schema)


def as_dict(out):
    d = out.to_pydict()
    return {(a, b): v for a, b, v in zip(d["k1"], d["k2"], d["v"])}


def check(rows, split=None):
    out = join_distinct(table(rows, split), KEYS, "v")
    assert out.column_names == ["k1", "k2", "v"]
    assert as_dict(out) == reference(rows)
    keys = list(zip(out["k1"].to_pylist(), out["k2"].to_pylist()))
    assert keys == sorted(keys, key=lambda k: (k[0].encode(), k[1].encode()))
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "é"]),
                          st.sampled_from(["x", "y"]), VALUE), max_size=40),
       st.integers(min_value=0, max_value=40))
def test_join_distinct_matches_python(rows, split):
    check(rows)
    check(rows, split=min(split, len(rows)))


def test_empty_and_single_row():
    out = check([])
    assert out.num_rows == 0 and out.schema.field("v").type == pa.string()
    assert check([("a", "x", "t")]).to_pylist() == [{"k1": "a", "k2": "x", "v": "t"}]
    # a key whose only value is null keeps its row, with the empty set
    assert check([("a", "x", None)])["v"].to_pylist() == [""]


def test_duplicates_collapse():
    rows = [("a", "x", "t")] * 5 + [("a", "x", "s")] * 3
    assert check(rows)["v"].to_pylist() == ["s|t"]


def test_key_change_in_second_column_only():
    # adjacent after the sort, same first key, same value: still two groups
    rows = [("a", "x", "t"), ("a", "y", "t"), ("a", "x", "u")]
    assert check(rows).to_pylist() == [{"k1": "a", "k2": "x", "v": "t|u"},
                                       {"k1": "a", "k2": "y", "v": "t"}]


def test_null_keys_form_one_group_last():
    rows = [(None, "x", "b"), ("a", "x", "c"), (None, "x", "a")]
    out = join_distinct(table(rows), KEYS, "v")
    assert out.to_pylist() == [{"k1": "a", "k2": "x", "v": "c"},
                               {"k1": None, "k2": "x", "v": "a|b"}]


def test_dictionary_columns_decode():
    t = table([("b", "x", "z"), ("a", "x", "y"), ("b", "x", "y")])
    t = pa.table({c: t[c].dictionary_encode() for c in t.column_names})
    assert join_distinct(t, KEYS, "v").to_pylist() == [
        {"k1": "a", "k2": "x", "v": "y"}, {"k1": "b", "k2": "x", "v": "y|z"}]


def test_non_ascii_order_equals_duckdb():
    vals = ["z", "Z", "é", "e", "ä", "日本", "語", "🙂", "", "a", "ß", "Ж", "é"]
    rows = [("a", "x", v) for v in vals] + [("b", "x", v) for v in vals[::-1][:6]]
    got = as_dict(join_distinct(table(rows), KEYS, "v"))
    t = table(rows)  # noqa: F841 - read by the DuckDB replacement scan below
    sql = ("SELECT k1, k2, string_agg(DISTINCT v, '|' ORDER BY v) AS v "
           "FROM t GROUP BY k1, k2")
    want = {(a, b): v for a, b, v in duckdb.sql(sql).fetchall()}
    assert got == want == reference(rows)


def test_split_and_union_joined():
    t = pa.table({"k": ["p", "p", "q", "r", "s"],
                  "s": ["b|a", "c|a", "", None, "x||y"]})
    assert split_joined(t, ["k"], "s").to_pylist() == [
        {"k": "p", "s": "b"}, {"k": "p", "s": "a"}, {"k": "p", "s": "c"},
        {"k": "p", "s": "a"}, {"k": "q", "s": None}, {"k": "r", "s": None},
        {"k": "s", "s": "x"}, {"k": "s", "s": ""}, {"k": "s", "s": "y"}]
    # empty sets keep their key; an empty element inside a set is a value
    assert union_joined(t, ["k"], "s").to_pylist() == [
        {"k": "p", "s": "a|b|c"}, {"k": "q", "s": ""}, {"k": "r", "s": ""},
        {"k": "s", "s": "|x|y"}]


def test_bucketed_table_apply_writes_one_row_group_per_file(tmp_path):
    rows = [{"k": f"k{i % 50}", "v": f"v{i % 7}"} for i in range(2000)]
    ds = ray.data.from_items(rows).repartition(2)
    out = bucketed_table_apply(ds, "k", lambda t: join_distinct(t, ["k"], "v"), 16)
    out.write_parquet(str(tmp_path))
    files = sorted(tmp_path.glob("*.parquet"))
    got = pa.concat_tables([pq.read_table(f) for f in files])
    assert sorted(got["k"].to_pylist()) == sorted(f"k{i}" for i in range(50))
    assert len(files) < 16, "several buckets must share a written block"
    assert [pq.ParquetFile(f).metadata.num_row_groups for f in files] == [1] * len(files)


def test_element_terms_block_split_invariant(sf_smoke):
    """The same linked mentions as 1 block and as 16 blocks (one element's
    mentions straddling blocks) give the same element rows."""
    from dug_ray.pipelines import kg
    from dug_ray.stages.canonicalize import build_concepts, element_terms

    linked = kg.linked_mentions_ds(sf_smoke).to_pandas().sort_values(
        ["element_id", "tok_pos"], kind="mergesort").reset_index(drop=True)
    concepts = build_concepts(ray.data.from_pandas(linked)).materialize()
    one = ray.data.from_pandas(linked).repartition(1).materialize()
    many = ray.data.from_pandas(linked).repartition(16).materialize()

    blocks = [ray.get(r) for r in many.to_pandas_refs()]
    assert len(blocks) >= 16
    seen, straddling = {}, set()
    for i, b in enumerate(blocks):
        for e in set(b["element_id"]):
            if seen.setdefault(e, i) != i:
                straddling.add(e)
    assert straddling, "no element's mentions straddle two blocks"

    def rows(ds):
        return sorted(element_terms(ds, concepts).to_pandas()
                      .itertuples(index=False, name=None))

    got_one, got_many = rows(one), rows(many)
    assert got_one == got_many
    assert len(got_one) == linked["element_id"].nunique()
