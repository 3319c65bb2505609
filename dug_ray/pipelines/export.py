"""Searchable-dict export: the reference's crawl/index output family.

``dug crawl`` writes ``crawl/element_file.json`` / ``crawl/concept_file.json``
(searchable dicts, ``/root/reference/src/dug/core/crawler.py:65,80,99-103``)
and upserts three Elasticsearch indices (``core/index.py:186-246``). The
engine equivalent: three partitioned parquet datasets with the same logical
schemas —

- ``elements/``  : variables_index analogue (``index.py:118-157``) — one row
  per element with its search terms, concept ids and identifier union;
- ``concepts/``  : concepts_index analogue (``index.py:80-117``) — one row
  per canonical concept;
- ``kg/``        : kg_index analogue (``index.py:224-246``) — one row per
  (concept, query) answer with doc id ``{concept_id}_{answer_id}``.

Everything derives from the already-verified pipelines; writes stream
(``write_parquet``), nothing materializes on the driver.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from dug_ray.pipelines import kg
from dug_ray.shuffle import bucketed_table_apply, join_distinct, union_joined
from dug_ray.stages.canonicalize import build_concepts, element_terms
from dug_ray.stages.expand import expand_concepts


def _atomic_write(ds: ray.data.Dataset, final: str) -> None:
    """write_parquet into a tmp dir + rename (the cmd_curate/runner
    pattern): a rerun into the same out_dir REPLACES the dataset instead of
    appending uniquely-named part files next to the old ones."""
    import os
    import shutil
    tmp = final.rstrip("/") + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    ds.write_parquet(tmp)
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)


def kg_answers(concepts: ray.data.Dataset) -> ray.data.Dataset:
    """QueryKG answer extraction + dedup (M18 ``tranql.py:21-61``, A6
    ``parsers/_base.py:106-110``): one answer per (concept, query shape),
    answer_id = joined sorted node ids + query name; objs and obj names
    aggregated sorted-distinct (the optional_terms feed, A3)."""
    trips = expand_concepts(concepts)
    keys = ["subj", "source_query"]
    by_keys = [(k, "ascending") for k in keys]

    def per_batch(batch: pa.Table) -> pa.Table:
        # partial per (subj, source_query); a subject's triples may straddle
        # blocks (Ray splits oversized map_batches outputs), so the partials
        # must merge ASSOCIATIVELY: sorted-distinct pipe-joins + summed
        # counts, with answer_id computed only after the final merge. Each
        # column comes out in ascending key order over the same key set.
        n = batch.group_by(keys).aggregate([([], "count_all")]).sort_by(by_keys)
        return (join_distinct(batch, keys, "obj").rename_columns([*keys, "objs"])
                .append_column("obj_names", join_distinct(batch, keys, "obj_name")["obj_name"])
                .append_column("n_edges", n["count_all"]))

    out = trips.map_batches(per_batch, batch_format="pyarrow", batch_size=None)

    def merge(t: pa.Table) -> pa.Table:
        n = t.group_by(keys).aggregate([("n_edges", "sum")]).sort_by(by_keys)
        g = (union_joined(t, keys, "objs")
             .append_column("obj_names", union_joined(t, keys, "obj_names")["obj_names"])
             .append_column("n_edges", n["n_edges_sum"]))
        return g.append_column("answer_id", pc.binary_join_element_wise(
            pc.replace_substring(g["objs"], "|", "_"), g["source_query"], "_"))

    return bucketed_table_apply(out, "subj", merge, 8)


def export_searchable(sf_dir: str, out_dir: str) -> dict[str, int]:
    """Write the three searchable datasets; returns row counts."""
    # pinned for this export only: concepts and element_terms both read it
    linked = kg.linked_mentions_ds(sf_dir).materialize()
    # consumed twice (element_terms' take_all + write_parquet): pin once so
    # the canonicalization shuffle doesn't re-execute
    concepts = build_concepts(linked).materialize()

    _atomic_write(element_terms(linked, concepts), f"{out_dir}/elements")
    _atomic_write(concepts, f"{out_dir}/concepts")

    answers = kg_answers(concepts)

    def doc_ids(batch: pa.Table) -> pa.Table:
        doc_id = pc.binary_join_element_wise(
            batch["subj"], batch["answer_id"], "_")
        return batch.append_column("doc_id", doc_id)

    answers = answers.map_batches(doc_ids, batch_format="pyarrow", batch_size=None)
    _atomic_write(answers, f"{out_dir}/kg")

    return {
        "elements": ray.data.read_parquet(f"{out_dir}/elements").count(),
        "concepts": ray.data.read_parquet(f"{out_dir}/concepts").count(),
        "kg": ray.data.read_parquet(f"{out_dir}/kg").count(),
    }
