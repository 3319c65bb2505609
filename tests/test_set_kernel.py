"""The sorted-distinct ``|``-joined set kernel (``shuffle.join_distinct``)
and ``element_terms``, which is built on it.

The kernel is checked against a pure-Python ``"|".join(sorted(set(vals)))``
reference and against DuckDB's ``string_agg(DISTINCT v, '|' ORDER BY v)``
(the form every set oracle uses); ``element_terms``, ``build_concepts`` and
``kg_answers`` must not depend on how their input is split into blocks."""

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
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


def _straddling(ds, col):
    """The values of ``col`` that occur in more than one block of ``ds``."""
    seen, out = {}, set()
    for i, ref in enumerate(ds.to_arrow_refs()):
        for v in set(ray.get(ref)[col].to_pylist()):
            if seen.setdefault(v, i) != i:
                out.add(v)
    return out


@pytest.mark.parametrize("stage", ["element_terms", "concepts", "kg_answers"])
def test_element_terms_block_split_invariant(sf_smoke, stage):
    """The same input as one block and as many blocks gives the same rows:
    ``element_terms`` and ``build_concepts`` over the linked mentions as 1
    block and as 16 (an element's mentions, and the hot concept's,
    straddling blocks); ``kg_answers`` over the concepts as 1 block and as
    one block per concept."""
    from dug_ray.pipelines import kg
    from dug_ray.pipelines.export import kg_answers
    from dug_ray.stages.canonicalize import build_concepts, element_terms
    from dug_ray.stages.expand import expand_concepts

    linked = kg.linked_mentions_ds(sf_smoke).to_pandas().sort_values(
        ["element_id", "tok_pos"], kind="mergesort").reset_index(drop=True)
    concepts = build_concepts(ray.data.from_pandas(linked)).materialize()
    if stage == "kg_answers":
        t = pa.concat_tables(ray.get(concepts.to_arrow_refs()))
        one = ray.data.from_arrow(t)
        many = ray.data.from_arrow([t.slice(i, 1) for i in range(t.num_rows)])
        assert many.num_blocks() == t.num_rows > 1
        fn = kg_answers
        n_rows = len(expand_concepts(concepts).to_pandas()
                     .drop_duplicates(["subj", "source_query"]))
    else:
        one = ray.data.from_pandas(linked).repartition(1).materialize()
        many = ray.data.from_pandas(linked).repartition(16).materialize()
        assert many.num_blocks() >= 16
        if stage == "element_terms":
            assert _straddling(many, "element_id"), "no element straddles two blocks"
            fn, n_rows = (lambda ds: element_terms(ds, concepts)), linked["element_id"].nunique()
        else:
            hot = linked["canonical_curie"].value_counts().idxmax()
            assert hot in _straddling(many, "canonical_curie")
            fn, n_rows = build_concepts, linked["canonical_curie"].nunique()

    def rows(ds):
        return sorted(fn(ds).to_pandas().itertuples(index=False, name=None))

    got_one, got_many = rows(one), rows(many)
    assert got_one == got_many
    assert len(got_one) == n_rows > 0
