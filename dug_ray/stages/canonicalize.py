"""Canonicalization shuffle: linked mentions -> concepts Dataset.

The Ray-Data re-expression of dug's concept assembly (SURVEY.md §2.5 A1-A5):
the reference accumulates a global in-process ``self.concepts`` dict while
looping elements sequentially (``/root/reference/src/dug/core/crawler.py:
34,155-166``), with first-writer-wins concept name/desc and per-identifier
``search_text`` unions (``parsers/_base.py:99-104,116-121``). Here that
implicit mutable state becomes an explicit **partial+final aggregate**:

1. *partial* (the combiner): inside ``map_batches``, each batch's mentions
   collapse to at most one row per canonical CURIE — counts, min (doc_id,
   tok_pos) ordering key and first-at-min name/type (a pandas groupby),
   and the term/identifier partial sets as ``|``-joined sorted-distinct
   strings (the Arrow kernel ``shuffle.join_distinct``). This is the
   skew defense: the hot CURIEs (``MONDO:0004976`` attaches to nearly every
   document — the north star's "ubiquitous MONDO/HP terms") are reduced
   ~batch_size-fold *before* any data moves, so the shuffle receives
   O(#batches x #distinct-curies) tiny rows instead of O(#mentions).
2. *final*: one Arrow pass per hash bucket of the concept key over the
   small partials — ``split_joined`` + ``join_distinct`` union the sets,
   and first-wins re-resolves by the global min (doc_id, tok_pos).

``element_terms`` (each element's search terms and concept ids) has the
same shape: an Arrow distinct of (element, collection, concept) per batch,
then one Arrow pass per element bucket that joins the distinct pairs to the
broadcast (concept, term) table and runs ``join_distinct`` twice. No string
set is built by a Python call per group.

Determinism: the reference's "first" is Python arrival order; ours is the
explicit total order (doc_id, tok_pos) carried from the parse stage
(SURVEY.md §2.9) — stable across re-runs and block orderings.

Output concept row (the ``DugConcept`` searchable dict,
``parsers/_base.py:131-143``, with list fields as sorted-distinct
pipe-joined strings for exact cross-engine comparison):
``concept_id, name, type, n_mentions, n_elements, search_terms,
identifiers, synonyms, purl, first_doc_id, first_tok_pos``.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from dug_ray.shuffle import (bucketed_table_apply, join_distinct, split_joined,
                             typed_table, union_joined)

CONCEPT_COLUMNS = [
    "concept_id", "name", "type", "n_mentions", "n_elements",
    "search_terms", "identifiers", "synonyms", "purl",
    "first_doc_id", "first_tok_pos",
]
ELEMENT_KEYS = ["element_id", "collection_id"]


def _distinct(batch: pa.Table, cols: list[str]) -> pa.Table:
    return batch.select(cols).group_by(cols).aggregate([])


def partial_concepts(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: mentions -> partial concept metadata rows.

    One row per canonical CURIE, in CURIE order. The term and identifier
    sets come from ``join_distinct`` over the batch; element membership is
    deliberately NOT carried here — a hot concept's element list is
    unbounded (a single partial string would be GBs at corpus scale), so
    ``n_elements`` comes from the separate distinct-pair count in
    ``build_concepts``."""
    df = batch.select(["doc_id", "tok_pos", "canonical_curie", "curie", "name",
                       "type", "synonyms", "purl"]).to_pandas()
    # doc_id is a string (io.py contract); order by NATURAL string order
    # (length, then lexicographic) — equals numeric order for canonical
    # integer ids without crashing on 'phs000123'-style ids. The emitted
    # first_doc_id column stays numeric (-1 sentinel for non-numeric ids,
    # in which case _doc_key carries the true ordering to the merge).
    df["_doc_len"] = df["doc_id"].str.len()
    df = df.sort_values(["_doc_len", "doc_id", "tok_pos"], kind="mergesort")
    # exact int64 parse (pd.to_numeric routes through float64 and corrupts
    # ids above 2^53); non-numeric ids keep the -1 sentinel, _doc_key
    # still carries their true ordering
    is_num = df["doc_id"].str.fullmatch(r"-?\d{1,18}")
    dn = pd.Series(-1, index=df.index, dtype="int64")
    if is_num.any():
        dn[is_num] = df.loc[is_num, "doc_id"].astype("int64")
    # 19-digit ids may still fit int64 (1e18..9.22e18): overflow-checked
    # exact parse on that rare subset only; genuine overflows keep -1
    c19 = df["doc_id"].str.fullmatch(r"-?\d{19}")
    if c19.any():
        v = df.loc[c19, "doc_id"].map(int)
        fits = v.between(-(1 << 63), (1 << 63) - 1)
        dn.loc[v.index[fits]] = v[fits].astype("int64")
    df["_doc_num"] = dn
    g = df.groupby("canonical_curie", sort=False)
    out = g.agg(
        name=("name", "first"),
        type=("type", "first"),
        synonyms=("synonyms", "first"),
        purl=("purl", "first"),
        n_mentions=("curie", "size"),
        first_doc_id=("_doc_num", "first"),
        _doc_key=("doc_id", "first"),
        first_tok_pos=("tok_pos", "first"),
    ).reset_index()
    first = typed_table(out.rename(columns={"canonical_curie": "concept_id"}),
                        concept_id=pa.string(), name=pa.string(), type=pa.string(),
                        synonyms=pa.string(), purl=pa.string(), n_mentions=pa.int64(),
                        first_doc_id=pa.int64(), _doc_key=pa.string(),
                        first_tok_pos=pa.int64()).sort_by("concept_id")
    key = ["canonical_curie"]
    return (first.append_column("terms", join_distinct(batch, key, "term")["term"])
            .append_column("identifiers", join_distinct(batch, key, "curie")["curie"]))


def merge_partials(partials: pa.Table) -> pa.Table:
    """Final merge of one bucket's partial concept rows, in concept order.

    First-wins name/type resolve to the row with the global min
    (doc natural order, first_tok_pos) — the deterministic stand-in for the
    reference's arrival-order dict insert (``crawler.py:155-163``). Name and
    type join the sort key so even an exact positional tie between partials
    from different blocks resolves identically on every run (block arrival
    order never decides; in this ontology name/type are functions of the
    concept id, so this is purely a determinism guard). The sets are unions
    of the partial sets (``split_joined`` then ``join_distinct``); concept
    ``search_terms`` = terms ∪ synonyms (``parsers/_base.py:116-121``, A2)."""
    df = partials.select(["concept_id", "name", "type", "purl", "n_mentions",
                          "first_doc_id", "_doc_key", "first_tok_pos"]).to_pandas()
    df = df.assign(_doc_len=df["_doc_key"].str.len())
    df = df.sort_values(["_doc_len", "_doc_key", "first_tok_pos", "name", "type"],
                        kind="mergesort")
    out = df.groupby("concept_id", as_index=False, sort=False).agg(
        name=("name", "first"),
        type=("type", "first"),
        purl=("purl", "first"),
        n_mentions=("n_mentions", "sum"),
        first_doc_id=("first_doc_id", "first"),
        first_tok_pos=("first_tok_pos", "first"),
    )
    first = typed_table(out, concept_id=pa.string(), name=pa.string(),
                        type=pa.string(), purl=pa.string(), n_mentions=pa.int64(),
                        first_doc_id=pa.int64(),
                        first_tok_pos=pa.int64()).sort_by("concept_id")
    key = ["concept_id"]
    terms = pa.concat_tables([
        split_joined(partials, key, "terms"),
        split_joined(partials, key, "synonyms").rename_columns([*key, "terms"])])
    return (first
            .append_column("identifiers", union_joined(partials, key, "identifiers")["identifiers"])
            .append_column("synonyms", union_joined(partials, key, "synonyms")["synonyms"])
            .append_column("search_terms", join_distinct(terms, key, "terms")["terms"]))


def _element_pairs(batch: pa.Table) -> pa.Table:
    return _distinct(batch, ["canonical_curie", "element_id"])


def element_counts(linked: ray.data.Dataset, num_buckets: int = 32) -> ray.data.Dataset:
    """Exact distinct-(concept, element) counts per concept in one shuffle:
    per-batch pair dedup (combiner) -> bucket by concept -> per-bucket
    dedup + count. Output: concept_id, n_elements."""

    def per_bucket(pairs: pa.Table) -> pa.Table:
        n = _element_pairs(pairs).group_by("canonical_curie").aggregate(
            [([], "count_all")])
        return pa.table({"concept_id": n["canonical_curie"],
                         "n_elements": n["count_all"]})

    pairs = linked.map_batches(_element_pairs, batch_format="pyarrow", batch_size=None)
    return bucketed_table_apply(pairs, "canonical_curie", per_bucket, num_buckets)


def build_concepts(linked: ray.data.Dataset, num_buckets: int = 16) -> ray.data.Dataset:
    """linked mentions -> concepts (partial+final canonicalization shuffle).

    The partial combiner collapses hot CURIEs per batch before the shuffle;
    the final merge runs vectorized per hash bucket of the concept key
    (see dug_ray.shuffle for why not per-group map_groups). ``n_elements``
    joins in from the distinct-pair count; the counts table is bounded by
    ontology size, so it is collected and broadcast into the final map."""
    partials = linked.map_batches(partial_concepts, batch_format="pyarrow", batch_size=None)
    meta = bucketed_table_apply(partials, "concept_id", merge_partials, num_buckets)
    counts = {r["concept_id"]: r["n_elements"] for r in element_counts(linked).take_all()}

    def attach(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["n_elements"] = df["concept_id"].map(counts).fillna(0).astype("int64")
        return pa.Table.from_pandas(df[CONCEPT_COLUMNS], preserve_index=False)

    return meta.map_batches(attach, batch_format="pyarrow", batch_size=None)


def element_terms(linked: ray.data.Dataset, concepts: ray.data.Dataset) -> ray.data.Dataset:
    """Per-element search terms (A4, ``parsers/_base.py:63-78``): union over
    the element's concepts of concept search_terms + concept name, and the
    element's concept ids, each a sorted-distinct ``|``-joined set.

    The concepts side is bounded by ontology size, so it is collected once
    and exploded on the driver into a (canonical_curie, term) table that is
    broadcast into the aggregation (at 1000x ontology scale this becomes a
    co-partitioned join on concept_id). Per batch, the combiner is an Arrow
    distinct of (element_id, collection_id, canonical_curie); after the
    element-bucket exchange, one Arrow pass per bucket gives ``concepts``
    from the distinct pairs and ``search_terms`` from the pairs joined to
    the term table, both through ``join_distinct``."""
    c = pa.Table.from_pylist(
        concepts.select_columns(["concept_id", "search_terms", "name"]).take_all(),
        schema=pa.schema([("concept_id", pa.string()), ("search_terms", pa.string()),
                          ("name", pa.string())]))
    cterms = pa.concat_tables([
        split_joined(c, ["concept_id"], "search_terms")
        .rename_columns(["canonical_curie", "term"]),
        c.select(["concept_id", "name"]).rename_columns(["canonical_curie", "term"])])
    cterms = cterms.filter(pc.is_valid(cterms["term"]))

    def per_batch(batch: pa.Table) -> pa.Table:
        return _distinct(batch, [*ELEMENT_KEYS, "canonical_curie"])

    def merge_bucket(pairs: pa.Table) -> pa.Table:
        # left join: a concept missing from the term table still lists the
        # element (with the null term skipped), so both sets share one key set
        terms = pairs.join(cterms, "canonical_curie", join_type="left outer")
        return (join_distinct(terms, ELEMENT_KEYS, "term")
                .rename_columns([*ELEMENT_KEYS, "search_terms"])
                .append_column("concepts", join_distinct(
                    pairs, ELEMENT_KEYS, "canonical_curie")["canonical_curie"]))

    partial = linked.map_batches(per_batch, batch_format="pyarrow", batch_size=None)
    return bucketed_table_apply(partial, "element_id", merge_bucket, num_buckets=32)
