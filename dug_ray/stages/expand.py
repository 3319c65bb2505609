"""KG expansion: concepts + linked mentions -> (subj, pred, obj) triples.

Re-expresses dug's TranQL concept expansion (SURVEY.md §2.2 M16-M19, §2.4
J5-J6) as joins against the synthetic ontology edge table instead of the
remote TranQL service (``/root/reference/src/dug/core/concept_expander.py:
24-98``, answer extraction ``core/tranql.py:21-105``):

- **curie validity filter** (M16, ``tranql.py:242-255``; prefix map
  ``tranql.py:205-212``): an edge only applies to a concept when the
  concept's CURIE prefix is allowed for that edge's query shape;
- **redlist anti-join** (M17, ``crawler.py:183-185`` +
  ``config.py:92``): excluded identifiers are never expanded — a broadcast
  anti filter;
- **expansion join** (J5): canonical CURIEs x ontology_edges. The edges
  table here is small -> one per-batch lookup (``expansion_edges``) over
  the per-process cached valid-edge table, shared by ``triples_partial``
  and ``expand_concepts``; at full KG scale (edges >> memory) this becomes
  a hash-partitioned shuffle join on ``subj`` — same key as the final
  sort, so the partitioning is reused;
- **annotates edges**: one ``dug:annotates`` triple per distinct
  (concept, element) pair — dug's concept->element membership
  (``crawler.py:128-142``, the searchable-dict ``concepts`` field). This is
  the *large* side (O(mentions)): ``triples_partial`` emits it per batch
  after a per-batch distinct, and the subject-bucket exchange
  (stages/materialize.py) makes it exact;
- **node->element casting** (M19, ``crawler.py:203-276``,
  ``config.py:106-125``): expansion objects whose category matches a
  casting config (here ``biolink:Publication`` with ``HEALCDE:`` prefix)
  become new elements, unioned into the elements stream.

Triple row: ``subj, pred, obj, obj_name, source_query``.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from dug_ray import ontology

TRIPLE_SCHEMA = pa.schema([
    ("subj", pa.string()),
    ("pred", pa.string()),
    ("obj", pa.string()),
    ("obj_name", pa.string()),
    ("source_query", pa.string()),
])


@functools.lru_cache(maxsize=1)
def _valid_edges() -> pa.Table:
    """Edge table pre-filtered by subject-prefix validity + redlist, built
    once per process.

    Both filters depend only on the edge row, so they are applied once to
    the small side instead of per batch."""
    e = ontology.edges_df()
    prefix = e["subj"].str.partition(":")[0]
    allowed = pd.Series(
        [p in ontology.QUERY_VALID_PREFIXES.get(q, []) for p, q in zip(prefix, e["source_query"])],
        index=e.index)
    e = e[allowed & ~e["subj"].isin(ontology.TRANQL_EXCLUDE_IDENTIFIERS)]
    return pa.Table.from_pandas(e[TRIPLE_SCHEMA.names], schema=TRIPLE_SCHEMA,
                                preserve_index=False).replace_schema_metadata()


def expansion_edges(subjects: pa.Array | pa.ChunkedArray) -> pa.Table:
    """The expansion join for one batch: valid ontology edges (as
    ``TRIPLE_SCHEMA``, in edge-table order) whose subject is one of
    ``subjects`` (canonical CURIEs)."""
    edges = _valid_edges()
    return edges.filter(pc.is_in(edges["subj"], value_set=pc.unique(subjects)))


def concept_triples(batch: pa.Table) -> pa.Table:
    """The expansion triples of one batch of concepts (by ``concept_id``)."""
    return expansion_edges(batch["concept_id"])


def expand_concepts(concepts: ray.data.Dataset) -> ray.data.Dataset:
    """concepts -> expansion triples (join on the canonical CURIE)."""
    return concepts.map_batches(concept_triples, batch_format="pyarrow", batch_size=None)


def triples_partial(linked: ray.data.Dataset) -> ray.data.Dataset:
    """One-pass combiner: linked mentions -> (annotates pairs U expansion
    triples), emitted per batch in a single stage.

    This keeps the headline pipeline a SINGLE streaming pass — no
    ``materialize()`` of the mention table and no branch re-execution; the
    only exchange left is the salted subject-bucket groupby
    (``materialize.dedup_triples`` / ``materialize_graph``), where
    cross-batch duplicates are exactly deduped. The per-batch distinct
    keeps each ``(canonical_curie, element_id)`` pair's first occurrence,
    in first-occurrence order: both columns are dictionary-encoded, the
    pair of codes is one int64 key, and ``np.unique`` gives each key's
    first row. Low-cardinality output columns stay dictionary-encoded
    (shuffle moves codes, not repeated strings)."""

    def emit(batch: pa.Table) -> pa.Table:
        subj, obj = (pc.dictionary_encode(batch[c], null_encoding="encode").combine_chunks()
                     for c in ("canonical_curie", "element_id"))
        key = (subj.indices.to_numpy().astype(np.int64) * max(len(obj.dictionary), 1)
               + obj.indices.to_numpy())
        first = pa.array(np.sort(np.unique(key, return_index=True)[1]))
        n = len(first)
        ann = pa.table({
            "subj": pc.take(subj, first).cast(pa.string()).dictionary_encode(),
            "pred": pa.nulls(n, pa.string()).fill_null("dug:annotates").dictionary_encode(),
            "obj": pc.take(obj, first).cast(pa.string()),
            "obj_name": pa.nulls(n, pa.string()).fill_null("").dictionary_encode(),
            "source_query": pa.nulls(n, pa.string()).fill_null("annotation").dictionary_encode(),
        })
        hit = expansion_edges(subj.dictionary).combine_chunks()
        exp = pa.table({c: hit[c] if c == "obj" else hit[c].dictionary_encode()
                        for c in TRIPLE_SCHEMA.names})
        return pa.concat_tables([exp, ann], promote_options="default")

    return linked.map_batches(emit, batch_format="pyarrow", batch_size=None)


def cast_elements_from_triples(triples: ray.data.Dataset,
                               category: str = "biolink:Publication",
                               prefix: str = "HEALCDE") -> ray.data.Dataset:
    """M19 node->element casting: qualifying expansion objects become new
    elements (``crawler.py:203-276``; ``attribute_mapping`` reformat
    ``factory.py:69-95`` with first-element truncation ``crawler.py:267-269``).
    """
    edges = ontology.edges_df()

    def per_batch(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        cat = df["obj"].map(dict(zip(edges["obj"], edges["obj_category"])))
        hit = df[(cat == category) & df["obj"].str.startswith(prefix + ":")]
        # combiner must keep the MIN subj per obj (the global dedup picks
        # min collection_id; a keep-first here could discard it before the
        # final merge ever sees it)
        hit = hit.sort_values(["obj", "subj"], kind="mergesort") \
                 .drop_duplicates(subset=["obj"], keep="first")
        return pa.table({
            "element_id": pa.array(hit["obj"], type=pa.string()),
            "element_name": pa.array(hit["obj_name"], type=pa.string()),
            "element_desc": pa.array(hit["obj_name"], type=pa.string()),
            "data_type": pa.array(["cde"] * len(hit), type=pa.string()),
            "collection_id": pa.array(hit["subj"], type=pa.string()),
        })

    # distinct across blocks: same HEALCDE obj may arrive from many concepts;
    # bucketed grouped apply (not per-key map_groups — shuffle.py discipline)
    from dug_ray.shuffle import bucketed_group_apply
    casted = triples.map_batches(per_batch, batch_format="pyarrow", batch_size=None)

    def dedup(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(["element_id", "collection_id"], kind="mergesort")
                .drop_duplicates(subset=["element_id"], keep="first"))

    return bucketed_group_apply(casted, "element_id", dedup, num_buckets=8)
