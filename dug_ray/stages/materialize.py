"""Graph materialize sink: the sorted, subject-partitioned triple table.

Replaces dug's three Elasticsearch indices (``/root/reference/src/dug/core/
index.py:55-246``, SURVEY.md §2.1 S18) with the north star's serving layer:
a **sorted triple table partitioned by canonical subject**, written by a
two-phase scatter/compact exchange with a per-bucket lineage manifest so
that (a) a reader can prune to a subject's bucket and (b) a killed run
resumes per-bucket without recomputing completed fragments (see
state/manifest.py).

Each partition is deduped and sorted by one Arrow kernel
(``dedup_partition``): int rank codes of the key columns, a stable
``np.lexsort``, adjacent duplicates dropped, one ``take``. Of duplicate
triples the first in input order is kept. Partitions never pass through
pandas, and ``kg_triples`` (so ``entry()``) runs the same kernel.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
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
        b = stable_bucket_array(batch["subj"], num_buckets).to_numpy(zero_copy_only=False)
        if salt > 1:
            s = stable_bucket_array(batch["obj"], salt).to_numpy(zero_copy_only=False)
            key = b.astype(np.int64) * salt + s
        else:
            key = b.astype(np.int64)
        return batch.append_column("subj_bucket", pa.array(key.astype(np.int32)))

    return triples.map_batches(_bucket, batch_format="pyarrow", batch_size=None)


def _sort_codes(col: pa.ChunkedArray) -> np.ndarray:
    """Each row's dense rank in the UTF-8 byte order of ``col``'s values,
    nulls equal to each other and after every value.

    The dictionaries of all chunks (a plain string chunk is
    dictionary-encoded first) plus one null are ranked in one
    ``pc.rank`` call; rows then gather their rank by dictionary index, so
    the strings themselves are compared once per distinct value per chunk,
    never per row. A null index points at the appended null."""
    chunks = [c if pa.types.is_dictionary(c.type) else c.dictionary_encode()
              for c in col.chunks]
    value_type = col.type.value_type if pa.types.is_dictionary(col.type) else col.type
    dicts = [c.dictionary for c in chunks]
    ranks = pc.rank(pa.concat_arrays(dicts + [pa.nulls(1, value_type)]),
                    null_placement="at_end", tiebreaker="dense").to_numpy()
    starts = np.cumsum([0] + [len(d) for d in dicts])   # the last is the null's slot
    slots = [pc.fill_null(pc.add(c.indices.cast(pa.int64()), int(s)), int(starts[-1]))
             .to_numpy(zero_copy_only=False) for c, s in zip(chunks, starts)]
    return ranks[np.concatenate(slots)] if slots else ranks[:0]


def dedup_partition(part: pa.Table) -> pa.Table:
    """One salted subject partition as ``TRIPLE_SCHEMA`` strings: exact
    dedup on (subj, pred, obj), sorted by it, ``subj_bucket`` dropped.

    Arrow kernel, no pandas: the three key columns become int rank codes
    (``_sort_codes``), ``np.lexsort`` orders the rows and rows equal to
    their predecessor on all three codes are dropped before one ``take``.
    lexsort is stable, so of duplicate triples the first in input order is
    kept (its ``obj_name`` / ``source_query`` win), as ``drop_duplicates``
    + a mergesort would keep it. Strings order by UTF-8 bytes; null keys
    compare equal and sort last."""
    codes = [_sort_codes(part[c]) for c in ("subj", "pred", "obj")]
    order = np.lexsort(codes[::-1])
    ordered = [c[order] for c in codes]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = np.logical_or.reduce([c[1:] != c[:-1] for c in ordered])
    return part.select(TRIPLE_SCHEMA.names).take(order[keep]).cast(TRIPLE_SCHEMA)


def dedup_triples(triples: ray.data.Dataset) -> ray.data.Dataset:
    """The exchange of ``materialize_graph`` without the write: the salted
    subject-bucket groupby (default layout) with the same per-partition
    dedup, as plain ``TRIPLE_SCHEMA`` string columns."""
    return (add_subj_bucket(triples, NUM_BUCKETS, salt=SALT)
            .groupby("subj_bucket").map_groups(dedup_partition, batch_format="pyarrow"))


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
            mask = pc.invert(pc.is_in(batch["subj_bucket"],
                                      value_set=pa.array(done_list, pa.int32())))
            return batch.filter(mask)

        bucketed = bucketed.map_batches(drop_done, batch_format="pyarrow", batch_size=None)

    def write_partition(part: pa.Table) -> pa.Table:
        import time
        t0 = time.time()
        b = part["subj_bucket"][0].as_py()
        part = dedup_partition(part)
        final = os.path.join(out_dir, f"part-{b:05d}.parquet")
        # side-effect write is idempotent: tmp-file + rename; a task retry
        # simply replaces the file with identical content
        fp = atomic_write_parquet(part, final)
        sec = round(time.time() - t0, 3)
        # per-bucket sidecar marker: a crash mid-materialize resumes past
        # this bucket (the end-of-run manifest rewrite compacts these away).
        # The marker carries the partition's metrics (wall sec, rows/s) next
        # to its lineage fingerprint — the north rule's per-partition metrics.
        PartitionManifest(out_dir).mark_done_sidecar(
            b, part.num_rows, final, fp,
            metrics={"sec": sec,
                     "rows_per_sec": round(part.num_rows / sec, 1) if sec > 0 else None})
        return pa.table({"bucket": [b], "rows": [part.num_rows], "path": [final],
                         "fingerprint": [fp], "sec": [sec]})

    stats = (bucketed.groupby("subj_bucket")
             .map_groups(write_partition, batch_format="pyarrow")
             .take_all())
    items = [(r["bucket"], r["rows"], r["path"], r["fingerprint"],
              {"sec": r["sec"],
               "rows_per_sec": round(r["rows"] / r["sec"], 1) if r["sec"] > 0 else None})
             for r in stats]
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
        return ray.data.from_arrow(TRIPLE_SCHEMA.empty_table())
    return ray.data.read_parquet(parts)


def subject_lookup(out_dir: str, subj: str, num_buckets: int = NUM_BUCKETS,
                   salt: int = SALT):
    """Serving-path point lookup: prune to the subject's ``salt`` partition
    files (the north-star read contract — a reader never scans the table).
    Returns a pyarrow Table of the subject's triples in (pred, obj) order."""
    import pyarrow.parquet as pq

    from dug_ray.shuffle import stable_bucket_array
    b = stable_bucket_array(pa.array([subj]), num_buckets)[0].as_py()
    tables = []
    for s in range(salt):
        path = os.path.join(out_dir, f"part-{b * salt + s:05d}.parquet")
        if os.path.exists(path):
            t = pq.read_table(path)
            tables.append(t.filter(pc.equal(t["subj"], subj)))
    if not tables:
        return TRIPLE_SCHEMA.empty_table()
    out = pa.concat_tables(tables)
    return out.sort_by([("pred", "ascending"), ("obj", "ascending")])
