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
import pyarrow.parquet as pq
import ray.data

from dug_ray.pipelines import kg
from dug_ray.shuffle import join_distinct
from dug_ray.stages.canonicalize import build_concepts, element_terms
from dug_ray.stages.expand import concept_triples


def _atomic_write(ds: ray.data.Dataset, final: str) -> int:
    """write_parquet into a tmp dir + rename (the cmd_curate/runner
    pattern): a rerun into the same out_dir REPLACES the dataset instead of
    appending uniquely-named part files next to the old ones. Returns the
    rows written, summed from the parquet footers."""
    import os
    import shutil
    tmp = final.rstrip("/") + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    ds.write_parquet(tmp)
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)
    return sum(pq.read_metadata(os.path.join(final, f)).num_rows
               for f in os.listdir(final) if f.endswith(".parquet"))


def kg_answers(concepts: ray.data.Dataset) -> ray.data.Dataset:
    """QueryKG answer extraction + dedup (M18 ``tranql.py:21-61``, A6
    ``parsers/_base.py:106-110``): one answer per (concept, query shape),
    answer_id = joined sorted node ids + query name; objs and obj names
    aggregated sorted-distinct (the optional_terms feed, A3).

    One ``map_batches`` and no exchange. Precondition: ``concepts`` holds
    one row per concept (``build_concepts`` does), so every expansion edge
    of a subject comes from the one call that holds that subject's row and
    each (subj, source_query) group is complete within its batch."""
    keys = ["subj", "source_query"]

    def answers(batch: pa.Table) -> pa.Table:
        trips = concept_triples(batch)
        n = trips.group_by(keys).aggregate([([], "count_all")]).sort_by(
            [(k, "ascending") for k in keys])
        g = (join_distinct(trips, keys, "obj").rename_columns([*keys, "objs"])
             .append_column("obj_names", join_distinct(trips, keys, "obj_name")["obj_name"])
             .append_column("n_edges", n["count_all"]))
        return g.append_column("answer_id", pc.binary_join_element_wise(
            pc.replace_substring(g["objs"], "|", "_"), g["source_query"], "_"))

    return concepts.map_batches(answers, batch_format="pyarrow", batch_size=None)


def export_searchable(sf_dir: str, out_dir: str) -> dict[str, int]:
    """Write the three searchable datasets; returns row counts."""
    # pinned for this export only: concepts and element_terms both read it
    linked = kg.linked_mentions_ds(sf_dir).materialize()
    # consumed twice (element_terms' take_all + write_parquet): pin once so
    # the canonicalization shuffle doesn't re-execute
    concepts = build_concepts(linked).materialize()

    counts = {"elements": _atomic_write(element_terms(linked, concepts), f"{out_dir}/elements"),
              "concepts": _atomic_write(concepts, f"{out_dir}/concepts")}

    answers = kg_answers(concepts)

    def doc_ids(batch: pa.Table) -> pa.Table:
        doc_id = pc.binary_join_element_wise(
            batch["subj"], batch["answer_id"], "_")
        return batch.append_column("doc_id", doc_id)

    answers = answers.map_batches(doc_ids, batch_format="pyarrow", batch_size=None)
    counts["kg"] = _atomic_write(answers, f"{out_dir}/kg")
    return counts
