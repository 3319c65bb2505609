"""Graph materialize sink: the sorted, subject-partitioned triple table.

Replaces dug's three Elasticsearch indices (``/root/reference/src/dug/core/
index.py:55-246``, SURVEY.md §2.1 S18) with the north star's serving layer:
a **sorted triple table partitioned by canonical subject**, written by a
two-phase scatter/compact exchange with a per-bucket lineage manifest so
that (a) a reader can prune to a subject's bucket and (b) a killed run
resumes per-bucket without recomputing completed fragments (see
state/manifest.py).
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import ray
import ray.data

from dug_ray.stages.expand import TRIPLE_SCHEMA

#: default table layout: subject buckets x hot-key salt partitions
NUM_BUCKETS = 64
SALT = 8


def add_subj_bucket(triples: ray.data.Dataset, num_buckets: int = 16,
                    salt: int = 1) -> ray.data.Dataset:
    """Stable partition key: ``hash(subj) % num_buckets`` hot-key-salted by
    ``hash(obj) % salt`` (north-star skew handling: a ubiquitous concept's
    triples split into ``salt`` independently processable partitions; a
    subject lookup scans its bucket's ``salt`` files). Deterministic across
    processes (see shuffle.stable_bucket_array) — required for resume.
    Exact dedup is preserved: duplicate triples share subj AND obj, hence
    the same salted key."""
    from dug_ray.shuffle import stable_bucket_array

    def _bucket(batch: pa.Table) -> pa.Table:
        import numpy as np
        b = stable_bucket_array(batch["subj"], num_buckets).to_numpy(zero_copy_only=False)
        if salt > 1:
            s = stable_bucket_array(batch["obj"], salt).to_numpy(zero_copy_only=False)
            key = b.astype(np.int64) * salt + s
        else:
            key = b.astype(np.int64)
        return batch.append_column("subj_bucket", pa.array(key.astype(np.int32)))

    return triples.map_batches(_bucket, batch_format="pyarrow", batch_size=None)


def dedup_partition(df: pd.DataFrame) -> pd.DataFrame:
    """One salted subject partition: exact dedup + (subj, pred, obj) sort,
    ``subj_bucket`` dropped."""
    df = df.drop(columns=["subj_bucket"])
    # dictionary-encoded shuffle columns arrive as pandas categoricals
    # whose sort order is insertion order — re-type for a true
    # lexicographic (subj, pred, obj) sort
    for c in df.columns:
        if isinstance(df[c].dtype, pd.CategoricalDtype):
            df[c] = df[c].astype(object)
    df = df.drop_duplicates(subset=["subj", "pred", "obj"])
    return df.sort_values(["subj", "pred", "obj"], kind="mergesort")


def dedup_triples(triples: ray.data.Dataset) -> ray.data.Dataset:
    """The exchange of ``materialize_graph`` without the write: the salted
    subject-bucket groupby (default layout) with the same per-partition
    dedup, as plain ``TRIPLE_SCHEMA`` string columns."""

    def per_group(df: pd.DataFrame) -> pa.Table:
        return pa.Table.from_pandas(dedup_partition(df), preserve_index=False).cast(TRIPLE_SCHEMA)

    return (add_subj_bucket(triples, NUM_BUCKETS, salt=SALT)
            .groupby("subj_bucket").map_groups(per_group, batch_format="pandas"))


def materialize_graph(triples: ray.data.Dataset, out_dir: str,
                      num_buckets: int = NUM_BUCKETS, resume: bool = True,
                      salt: int = SALT) -> str:
    """Subject-partitioned, within-partition-sorted triple table.

    One ``groupby(subj_bucket)`` exchange through the (shm-backed) object
    store; each group task exact-dedups (duplicates of a triple share subj
    AND obj, hence the same salted partition), sorts by (subj, pred, obj)
    and atomically writes its ``part-{bucket}.parquet`` + a manifest entry
    (state/manifest.py). The salted key (see add_subj_bucket) splits hot
    subjects across ``salt`` partitions — the skew defense the north star
    calls out for ubiquitous concepts.

    Resume: partitions in the manifest are filtered OUT of the shuffle (a
    broadcast anti-filter) and their files are never rewritten — a killed
    run redoes upstream compute for pending partitions only. (Avoiding
    upstream recompute entirely is the input-shard runner's job, which
    checkpoints linked mentions per shard.) A global cross-bucket order is
    not needed: the serving contract (north star) is "partitioned by
    canonical subject, sorted" — readers prune to a subject's bucket and
    merge its ``salt`` sorted files."""
    from dug_ray.state.manifest import PartitionManifest, atomic_write_parquet

    os.makedirs(out_dir, exist_ok=True)
    manifest = PartitionManifest(out_dir)
    if not resume:
        # a fresh run must not inherit a previous run's output: clear part
        # files, sidecar markers and the manifest, or buckets empty in THIS
        # run would keep serving the old run's parquet
        import glob
        for f in (glob.glob(os.path.join(out_dir, "part-*.parquet"))
                  + glob.glob(os.path.join(out_dir, "_done-*.json"))):
            os.unlink(f)
        if os.path.exists(manifest.path):
            os.unlink(manifest.path)
    # refuse to resume across a layout change: done-bucket ids from a
    # different (num_buckets, salt) would anti-filter the wrong partitions
    manifest.ensure_layout(num_buckets=num_buckets, salt=salt)
    done = manifest.completed_buckets() if resume else set()
    n_parts = num_buckets * salt

    bucketed = add_subj_bucket(triples, num_buckets, salt=salt)
    if done:
        done_list = sorted(done)

        def drop_done(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            mask = pc.invert(pc.is_in(batch["subj_bucket"],
                                      value_set=pa.array(done_list, pa.int32())))
            return batch.filter(mask)

        bucketed = bucketed.map_batches(drop_done, batch_format="pyarrow", batch_size=None)

    def write_partition(df: pd.DataFrame) -> pd.DataFrame:
        import time
        t0 = time.time()
        b = int(df["subj_bucket"].iloc[0])
        df = dedup_partition(df)
        final = os.path.join(out_dir, f"part-{b:05d}.parquet")
        # side-effect write is idempotent: tmp-file + rename; a task retry
        # simply replaces the file with identical content
        fp = atomic_write_parquet(pa.Table.from_pandas(df, preserve_index=False), final)
        sec = round(time.time() - t0, 3)
        # per-bucket sidecar marker: a crash mid-materialize resumes past
        # this bucket (the end-of-run manifest rewrite compacts these away).
        # The marker carries the partition's metrics (wall sec, rows/s) next
        # to its lineage fingerprint — the north rule's per-partition metrics.
        PartitionManifest(out_dir).mark_done_sidecar(
            b, len(df), final, fp,
            metrics={"sec": sec,
                     "rows_per_sec": round(len(df) / sec, 1) if sec > 0 else None})
        return pd.DataFrame([{"bucket": b, "rows": len(df), "path": final,
                              "fingerprint": fp, "sec": sec}])

    stats = (bucketed.groupby("subj_bucket")
             .map_groups(write_partition, batch_format="pandas")
             .to_pandas())
    items = [(int(r["bucket"]), int(r["rows"]), r["path"], r["fingerprint"],
              {"sec": float(r["sec"]),
               "rows_per_sec": round(int(r["rows"]) / float(r["sec"]), 1)
               if float(r["sec"]) > 0 else None})
             for _, r in stats.iterrows()]
    # partitions with no rows at all: mark done so resume skips them too
    seen = {i[0] for i in items} | done
    items += [(b, 0, "") for b in range(n_parts) if b not in seen]
    manifest.mark_done_many(items)
    return out_dir


def read_graph(out_dir: str) -> ray.data.Dataset:
    """Read the materialized triple table (final parts only). A fully-empty
    materialization (every partition zero rows -> no part files) reads as
    an empty typed dataset rather than crashing read_parquet([])."""
    import glob
    parts = sorted(glob.glob(os.path.join(out_dir, "part-*.parquet")))
    if not parts:
        return ray.data.from_pandas(pd.DataFrame({
            c: pd.Series([], dtype="object")
            for c in ("subj", "pred", "obj", "obj_name", "source_query")}))
    return ray.data.read_parquet(parts)


def subject_lookup(out_dir: str, subj: str, num_buckets: int = NUM_BUCKETS,
                   salt: int = SALT):
    """Serving-path point lookup: prune to the subject's ``salt`` partition
    files (the north-star read contract — a reader never scans the table).
    Returns a pyarrow Table of the subject's triples in (pred, obj) order."""
    import pyarrow.compute as pcc
    import pyarrow.parquet as pq

    from dug_ray.shuffle import stable_bucket_array
    b = stable_bucket_array(pa.array([subj]), num_buckets)[0].as_py()
    tables = []
    for s in range(salt):
        path = os.path.join(out_dir, f"part-{b * salt + s:05d}.parquet")
        if os.path.exists(path):
            t = pq.read_table(path)
            tables.append(t.filter(pcc.equal(t["subj"], subj)))
    if not tables:
        return pa.table({c: pa.array([], pa.string())
                         for c in ["subj", "pred", "obj", "obj_name", "source_query"]})
    out = pa.concat_tables(tables)
    return out.sort_by([("pred", "ascending"), ("obj", "ascending")])
