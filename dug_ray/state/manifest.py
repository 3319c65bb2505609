"""Per-partition lineage manifest for resumable runs.

The reference resumes by file-existence probes on its crawlspace
(``/root/reference/src/dug/core/concept_expander.py:29-33`` reuses a cached
KG JSON per (identifier, query); ``core/index.py:201-202`` skips concepts
already indexed). Here the unit of resume is an output *bucket partition*:

- each completed bucket is one parquet file written ATOMICALLY (tmp file +
  ``os.rename`` on the same filesystem), plus a manifest JSON line with
  row count and content fingerprint;
- a restarted run anti-joins pending buckets against the manifest and only
  recomputes those — completed fragments are never recomputed
  (BASELINE.json resume criterion);
- the manifest itself is rewritten atomically on every update, so a kill at
  any point leaves either the old or the new manifest, never a torn one.
"""

from __future__ import annotations

import json
import os
import tempfile


class PartitionManifest:
    """status of bucket partitions for one output directory."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, "_manifest.json")

    def load(self) -> dict[str, dict]:
        """Main manifest merged with any per-bucket sidecar markers.

        Sidecars are written by the bucket tasks themselves (one atomic file
        per bucket — no shared-file race), so a run killed mid-materialize
        still resumes past every bucket that finished; the end-of-run
        ``mark_done_many`` folds them into the main manifest and compacts
        them away."""
        import glob
        entries: dict[str, dict] = {}
        if os.path.exists(self.path):
            with open(self.path) as f:
                entries = json.load(f)
        for sc in glob.glob(os.path.join(self.out_dir, "_done-*.json")):
            bucket = os.path.basename(sc)[len("_done-"):-len(".json")]
            if str(int(bucket)) not in entries:
                try:
                    with open(sc) as f:
                        entries[str(int(bucket))] = json.load(f)
                except (json.JSONDecodeError, OSError):
                    pass  # torn sidecar from a kill: treat bucket as pending
        return entries

    def mark_done_sidecar(self, bucket: int, rows: int, path: str,
                          fingerprint: str = "",
                          metrics: dict | None = None) -> None:
        """Per-bucket completion marker written by the worker task right
        after its atomic partition write (tmp + rename; idempotent on task
        retry). ``metrics`` carries the partition's run metrics (wall
        seconds, rows/s — the north rule's per-partition metrics)."""
        fd, tmp = tempfile.mkstemp(dir=self.out_dir, suffix=".done.tmp")
        entry = {"status": "done", "rows": rows, "path": path,
                 "fingerprint": fingerprint}
        if metrics:
            entry["metrics"] = metrics
        with os.fdopen(fd, "w") as f:
            json.dump(entry, f)
        os.rename(tmp, os.path.join(self.out_dir, f"_done-{bucket:05d}.json"))

    def total_rows(self) -> int:
        """Rows over every partition entry (the ``_meta`` entry has none)."""
        return sum(v["rows"] for k, v in self.load().items() if k != "_meta")

    def completed_buckets(self) -> set[int]:
        return {int(k) for k, v in self.load().items() if v.get("status") == "done"}

    def ensure_layout(self, **params) -> None:
        """Pin the partition-layout parameters (num_buckets, salt) in the
        manifest and REFUSE a resume whose parameters differ — done-bucket
        ids from a different layout would anti-filter the wrong partitions
        and silently drop rows (the runner pins num_shards/parser in its
        checkpoint meta for the same reason)."""
        entries = self.load()
        meta = entries.get("_meta")
        if meta is None:
            done = [k for k, v in entries.items() if v.get("status") == "done"]
            if done:
                # a legacy manifest (written before layout pinning) with
                # completed buckets: adopting the CURRENT run's params would
                # accept exactly the hazard this guard exists for (resuming
                # an old checkpoint under a changed layout). Refuse; the
                # operator must restate the original layout or start fresh.
                raise ValueError(
                    f"manifest at {self.out_dir} has {len(done)} completed "
                    f"buckets but no pinned layout (_meta); refusing to "
                    f"stamp it with {params} — use a fresh out_dir, or add "
                    f"_meta by hand if the original layout is known to match")
            entries["_meta"] = {"status": "meta", **params}
            self._write(entries)
            return
        got = {k: meta.get(k) for k in params}
        if got != params:
            raise ValueError(
                f"resume layout mismatch for {self.out_dir}: manifest has "
                f"{got}, run requested {params}; use a fresh out_dir or the "
                f"original parameters")

    def mark_done(self, bucket: int, rows: int, path: str, fingerprint: str = "",
                  metrics: dict | None = None) -> None:
        self.mark_done_many([(bucket, rows, path, fingerprint, metrics)])

    def mark_done_many(self, items) -> None:
        """One atomic rewrite for a batch of completions (O(n) not O(n^2)).

        ``items``: iterable of (bucket, rows, path[, fingerprint[, metrics]])."""
        entries = self.load()
        for item in items:
            bucket, rows, path = item[0], item[1], item[2]
            fingerprint = item[3] if len(item) > 3 else ""
            metrics = item[4] if len(item) > 4 else None
            entries[str(bucket)] = {
                "status": "done", "rows": rows, "path": path,
                "fingerprint": fingerprint,
            }
            if metrics:
                entries[str(bucket)]["metrics"] = metrics
        self._write(entries)
        # compact: every sidecar is now folded into the main manifest
        import glob
        for sc in glob.glob(os.path.join(self.out_dir, "_done-*.json")):
            try:
                os.unlink(sc)
            except OSError:
                pass

    def _write(self, entries: dict) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.out_dir, suffix=".manifest.tmp")
        with os.fdopen(fd, "w") as f:
            json.dump(entries, f, indent=0, sort_keys=True)
        os.rename(tmp, self.path)


def file_md5(paths) -> str:
    """Chunked md5 over one path or an ordered list of paths — the single
    lineage-fingerprint implementation shared by the partition sink and the
    stage-1 shard runner (resume comparisons depend on both producing the
    same scheme)."""
    import hashlib
    h = hashlib.md5()
    for p in ([paths] if isinstance(paths, str) else paths):
        with open(p, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def atomic_write_parquet(table, final_path: str) -> str:
    """Write a pyarrow table to ``final_path`` via tmp-file + rename.
    Returns the md5 fingerprint of the written bytes (lineage metric)."""
    import pyarrow.parquet as pq
    d = os.path.dirname(final_path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".parquet.tmp")
    os.close(fd)
    pq.write_table(table, tmp)
    fp = file_md5(tmp)
    os.rename(tmp, final_path)
    return fp
