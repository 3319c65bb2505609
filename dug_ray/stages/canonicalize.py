"""Canonicalization shuffle: linked mentions -> concepts Dataset.

The Ray-Data re-expression of dug's concept assembly (SURVEY.md §2.5 A1-A5):
the reference accumulates a global in-process ``self.concepts`` dict while
looping elements sequentially (``/root/reference/src/dug/core/crawler.py:
34,155-166``), with first-writer-wins concept name/desc and per-identifier
``search_text`` unions (``parsers/_base.py:99-104,116-121``). Here that
implicit mutable state becomes an explicit **partial+final aggregate** with
one exchange, all in Arrow compute (no pandas):

1. *partial* (the combiner): inside ``map_batches``, each batch's mentions
   collapse to one row per canonical CURIE — the first-wins row by (doc
   natural order, tok_pos) (``shuffle.first_rows``), the mention count, and
   the term, identifier and element sets as ``|``-joined sorted-distinct
   strings (``shuffle.join_distinct``). This is the skew defense: the hot
   CURIEs (``MONDO:0004976`` attaches to nearly every document — the north
   star's "ubiquitous MONDO/HP terms") are reduced ~batch_size-fold
   *before* any data moves, so the shuffle receives
   O(#batches x #distinct-curies) rows instead of O(#mentions). A partial's
   element set is bounded by its batch.
2. *final*: one Arrow pass per hash bucket of the concept key over the
   partials — ``split_joined`` + ``join_distinct`` union the sets,
   ``n_elements`` is the distinct count of the element sets, and first-wins
   re-resolves by the global least (doc natural order, tok_pos).

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

import re

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from dug_ray.shuffle import (bucketed_table_apply, first_rows, join_distinct,
                             split_joined, union_joined)

ELEMENT_KEYS = ["element_id", "collection_id"]
_INT_ID = re.compile(r"-?\d{1,19}")


def _doc_num(doc_id: str | None) -> int:
    """The exact int64 of a ``-?\\d{1,19}`` doc id that fits int64; -1 for
    any other id (``phs000123``, overflows)."""
    v = int(doc_id) if doc_id is not None and _INT_ID.fullmatch(doc_id) else -1
    return v if -(1 << 63) <= v < (1 << 63) else -1


def partial_concepts(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: mentions -> partial concept rows.

    One row per canonical CURIE, in CURIE order. doc_id is a string (io.py
    contract) and orders by NATURAL string order (length, then
    lexicographic) — numeric order for canonical integer ids, without
    failing on 'phs000123'-style ids; the winning id travels as the string
    ``_doc_key`` and is parsed once per concept in ``merge_partials``."""
    key = ["canonical_curie"]
    m = batch.select(["doc_id", "tok_pos", "canonical_curie", "name", "type",
                      "synonyms", "purl"])
    m = m.append_column("_doc_len", pc.utf8_length(m["doc_id"]))
    first = first_rows(m, "canonical_curie", ["_doc_len", "doc_id", "tok_pos"])
    n = batch.group_by(key).aggregate([([], "count_all")]).sort_by("canonical_curie")
    return pa.table({
        "concept_id": first["canonical_curie"], "name": first["name"],
        "type": first["type"], "synonyms": first["synonyms"], "purl": first["purl"],
        "n_mentions": n["count_all"], "_doc_key": first["doc_id"],
        "first_tok_pos": pc.cast(first["tok_pos"], pa.int64()),
        "terms": join_distinct(batch, key, "term")["term"],
        "identifiers": join_distinct(batch, key, "curie")["curie"],
        "elements": join_distinct(batch, key, "element_id")["element_id"],
    })


def merge_partials(partials: pa.Table) -> pa.Table:
    """Final merge of one bucket's partial concept rows, in concept order.

    First-wins name/type resolve to the row with the global least
    (doc natural order, first_tok_pos) — the deterministic stand-in for the
    reference's arrival-order dict insert (``crawler.py:155-163``). Name and
    type join the sort key so even an exact positional tie between partials
    from different blocks resolves identically on every run (block arrival
    order never decides; in this ontology name/type are functions of the
    concept id, so this is purely a determinism guard). The sets are unions
    of the partial sets (``split_joined`` then ``join_distinct``); concept
    ``search_terms`` = terms ∪ synonyms (``parsers/_base.py:116-121``, A2);
    ``n_elements`` counts the distinct elements over the partial sets."""
    key = ["concept_id"]
    m = partials.select(["concept_id", "name", "type", "purl", "_doc_key", "first_tok_pos"])
    m = m.append_column("_doc_len", pc.utf8_length(m["_doc_key"]))
    first = first_rows(m, "concept_id", ["_doc_len", "_doc_key", "first_tok_pos", "name", "type"])
    n = partials.group_by(key).aggregate([("n_mentions", "sum")]).sort_by("concept_id")
    e = (split_joined(partials, key, "elements").group_by(key)
         .aggregate([("elements", "count_distinct")]).sort_by("concept_id"))
    terms = pa.concat_tables([
        split_joined(partials, key, "terms"),
        split_joined(partials, key, "synonyms").rename_columns([*key, "terms"])])
    return pa.table({
        "concept_id": first["concept_id"], "name": first["name"], "type": first["type"],
        "n_mentions": n["n_mentions_sum"], "n_elements": e["elements_count_distinct"],
        "search_terms": join_distinct(terms, key, "terms")["terms"],
        "identifiers": union_joined(partials, key, "identifiers")["identifiers"],
        "synonyms": union_joined(partials, key, "synonyms")["synonyms"],
        "purl": first["purl"],
        "first_doc_id": pa.array([_doc_num(d) for d in first["_doc_key"].to_pylist()],
                                 pa.int64()),
        "first_tok_pos": first["first_tok_pos"],
    })


def build_concepts(linked: ray.data.Dataset, num_buckets: int = 16) -> ray.data.Dataset:
    """linked mentions -> concepts (partial+final canonicalization shuffle).

    The partial combiner collapses hot CURIEs per batch before the one
    exchange; the final merge runs vectorized per hash bucket of the concept
    key (see dug_ray.shuffle for why not per-group map_groups)."""
    partials = linked.map_batches(partial_concepts, batch_format="pyarrow", batch_size=None)
    return bucketed_table_apply(partials, "concept_id", merge_partials, num_buckets)


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
        cols = [*ELEMENT_KEYS, "canonical_curie"]
        return batch.select(cols).group_by(cols).aggregate([])

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
