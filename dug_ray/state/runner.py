"""Resumable end-to-end runner: per-input-shard checkpoints + per-output-
partition manifest.

The reference resumes by probing its crawlspace files
(``/root/reference/src/dug/core/concept_expander.py:29-33``). Here the run
is split into the two natural fragment granularities:

- **stage 1 (embarrassingly parallel)**: documents are sharded by
  ``doc_id % num_shards`` (the stand-in for Lance fragment ids at corpus
  scale); each shard runs the full parse -> NER -> link -> triple-combiner
  pipeline and atomically writes ``stage1/shard-{s}.parquet`` + a manifest
  entry. A killed run recomputes only shards missing from the manifest —
  completed fragments are never reread or recomputed (north-rule resume).
- **stage 2**: ``materialize_graph`` over the checkpointed stage-1 partials
  — itself resumable per output bucket partition via its own manifest.

Shard size should amortize per-execution overhead (at 10^12 docs a shard is
a Lance fragment of millions of rows; here 4-16 shards of the test corpus).
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from dug_ray.io import read_documents, spanify
from dug_ray.pipelines import kg
from dug_ray.stages.expand import TRIPLE_SCHEMA
from dug_ray.stages.materialize import materialize_graph, read_graph
from dug_ray.stages.parse import parse_elements
from dug_ray.state.manifest import PartitionManifest


def _shard_docs(sf_dir: str, shard: int, num_shards: int) -> ray.data.Dataset:
    # read_documents, not a raw parquet path: keeps the Lance storage shim
    docs = read_documents(sf_dir, columns=["doc_id", "text", "lang", "source"])

    def keep(b: pa.Table, s=shard, n=num_shards) -> pa.Table:
        # doc_id % n == s (pyarrow 16 has no modulo kernel)
        mod = pc.subtract(b["doc_id"], pc.multiply(pc.divide(b["doc_id"], n), n))
        return b.filter(pc.equal(mod, s))

    return docs.map_batches(keep, batch_format="pyarrow", batch_size=None)


def _write_shard(ds: ray.data.Dataset, final_dir: str) -> tuple[int, str]:
    """Cluster-side checkpoint write: the shard's triples stream straight
    from the workers via ``write_parquet`` into a tmp dir, which is renamed
    atomically — the driver never holds shard data (a shard is millions of
    rows at Lance-fragment scale). An empty shard (num_shards exceeding the
    distinct doc_id residues) writes one empty schema-bearing file so the
    stage-2 read keeps its schema. Returns (rows, fingerprint)."""
    import pyarrow.parquet as pq
    tmp = final_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    ds.write_parquet(tmp)
    files = sorted(glob.glob(os.path.join(tmp, "*.parquet")))
    if not files:
        os.makedirs(tmp, exist_ok=True)
        empty = os.path.join(tmp, "empty.parquet")
        pq.write_table(TRIPLE_SCHEMA.empty_table(), empty)
        files = [empty]
    from dug_ray.state.manifest import file_md5
    rows = sum(pq.read_metadata(f).num_rows for f in files)
    fp = file_md5(files)
    shutil.rmtree(final_dir, ignore_errors=True)
    os.rename(tmp, final_dir)
    return rows, fp


def _shard_triples(sf_dir: str, shard: int, num_shards: int,
                   parser=None) -> ray.data.Dataset:
    docs = spanify(_shard_docs(sf_dir, shard, num_shards))
    return kg.triples(docs, parser or parse_elements)


def run_resumable(sf_dir: str, out_dir: str, num_shards: int = 8,
                  stop_after_shards: int | None = None, parser=None,
                  parser_name: str | None = None) -> str:
    """Run the full KG pipeline with two-level resume.

    ``stop_after_shards`` simulates a crash: process that many pending
    stage-1 shards, then raise (used by the kill-resume test; a real crash
    at ANY point leaves only completed, atomically-renamed artifacts)."""
    stage1_dir = os.path.join(out_dir, "stage1")
    os.makedirs(stage1_dir, exist_ok=True)
    # pin the sharding modulus: the manifest's shard ids are only meaningful
    # for the num_shards they were computed under — resuming with a
    # different value would silently drop or double-count documents
    meta_path = os.path.join(stage1_dir, "_meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            meta = json.load(f)
        if meta["num_shards"] != num_shards:
            raise ValueError(
                f"resume with num_shards={num_shards} but the checkpoint was "
                f"written with num_shards={meta['num_shards']}; use the "
                f"original value or start a fresh out_dir")
        # parser consistency: completed shards were parsed with the recorded
        # brand — mixing brands across shards would be silently wrong. The
        # check runs only when both sides are named (library callers passing
        # a bare callable record null and skip it, documented).
        recorded_parser = meta.get("parser")
        if (recorded_parser is not None and parser_name is not None
                and recorded_parser != parser_name):
            raise ValueError(
                f"resume with parser '{parser_name}' but the checkpoint was "
                f"written with parser '{recorded_parser}'; use the original "
                f"parser or start a fresh out_dir")
    else:
        # tmp + rename, not a bare open(): a kill mid-write must not leave
        # a torn _meta.json that breaks every future resume (same contract
        # as manifest._write)
        import tempfile
        fd, tmp = tempfile.mkstemp(dir=stage1_dir, suffix=".meta.tmp")
        with os.fdopen(fd, "w") as f:
            json.dump({"num_shards": num_shards, "parser": parser_name}, f)
        os.rename(tmp, meta_path)

    manifest = PartitionManifest(stage1_dir)
    done = manifest.completed_buckets()
    pending = [s for s in range(num_shards) if s not in done]

    import time
    for i, s in enumerate(pending):
        if stop_after_shards is not None and i >= stop_after_shards:
            raise RuntimeError(f"simulated crash after {i} shards")
        path = os.path.join(stage1_dir, f"shard-{s:05d}.parquet")
        t0 = time.time()
        rows, fp = _write_shard(
            _shard_triples(sf_dir, s, num_shards, parser=parser), path)
        dt = time.time() - t0
        # per-partition metrics alongside the lineage fingerprint (north
        # rule: lineage manifests AND metrics per fragment)
        manifest.mark_done(s, rows, path, fp, metrics={
            "sec": round(dt, 3),
            "rows_per_sec": round(rows / dt, 1) if dt > 0 else None,
        })

    paths = []
    for s in range(num_shards):
        d = os.path.join(stage1_dir, f"shard-{s:05d}.parquet")
        paths.extend(sorted(glob.glob(os.path.join(d, "*.parquet"))))
    materialize_graph(ray.data.read_parquet(paths), out_dir)
    return out_dir


def output_triples(out_dir: str) -> ray.data.Dataset:
    return read_graph(out_dir)
