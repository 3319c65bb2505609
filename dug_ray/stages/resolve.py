"""Entity-resolution primitives: blocked pairwise string comparison.

``editdist_edges`` is the candidate-generation + verify shape of a
record-linkage pipeline: block on a cheap deterministic key (here the
name's first token) so only same-block pairs are compared, then score
every candidate pair with an EXACT Levenshtein distance and keep the
(key_a, key_b, dist) match edges.  Blocking is part of the operator's
contract (the SQL mirror joins on the same key), so recall tradeoffs are
explicit, not hidden.

Scale shape: the exchange moves one (block, key, name) row per record —
never pairs; pair generation happens inside the block's bucket task.
Per-task cost is O(|block|^2 x len^2) — at corpus scale you refine the
blocking key (more tokens, length bands, phonetic codes) until blocks are
bounded, which changes ONLY the block_fn, not the operator.

The DP is batch-vectorized: pairs are grouped by (len_a, len_b) and the
classic (la+1) x (lb+1) edit-distance recurrence runs with numpy over ALL
pairs of that length-shape at once — ~la*lb vectorized ops total, no
per-pair Python loop.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from dug_ray.shuffle import bucketed_group_apply, typed_table


def _levenshtein_batch(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Edit distances for P pairs: A (P, la) vs B (P, lb) uint8 codes."""
    P, la = A.shape
    lb = B.shape[1]
    prev = np.tile(np.arange(lb + 1, dtype=np.int32), (P, 1))
    cur = np.empty_like(prev)
    for i in range(1, la + 1):
        cur[:, 0] = i
        ai = A[:, i - 1:i]  # (P, 1)
        cost = (ai != B).astype(np.int32)  # (P, lb)
        for j in range(1, lb + 1):
            cur[:, j] = np.minimum(
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1),
                prev[:, j - 1] + cost[:, j - 1])
        prev, cur = cur, prev
    return prev[:, lb]


def _runs(sorted_arr: np.ndarray):
    """(starts, stops) of equal-value runs in a sorted array."""
    if len(sorted_arr) == 0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    change = np.flatnonzero(np.diff(sorted_arr)) + 1
    starts = np.concatenate([[0], change])
    stops = np.concatenate([change, [len(sorted_arr)]])
    return starts, stops


def _block_pair_edges(keys: np.ndarray, names: list[str],
                      max_dist: int) -> list[tuple[int, int, int]]:
    """(key_a, key_b, dist) for one block's pairs with dist <= max_dist
    (key_a < key_b): banded (|la - lb| <= max_dist), one batched DP per
    (la, lb) length shape."""
    n = len(names)
    if n < 2:
        return []
    lens = np.fromiter((len(s) for s in names), dtype=np.int64, count=n)
    L = int(lens.max())
    mat = np.zeros((n, L), dtype=np.uint32)
    for i, s in enumerate(names):
        mat[i, :len(s)] = np.frombuffer(s.encode("utf-32-le"),
                                        dtype=np.uint32)
    ia, ib = np.triu_indices(n, k=1)
    band = np.abs(lens[ia] - lens[ib]) <= max_dist
    ia, ib = ia[band], ib[band]
    out: list[tuple[int, int, int]] = []
    shape_key = lens[ia] * (L + 1) + lens[ib]
    order = np.argsort(shape_key, kind="stable")
    ia, ib, shape_key = ia[order], ib[order], shape_key[order]
    for start, stop in zip(*_runs(shape_key)):
        sa, sb = ia[start:stop], ib[start:stop]
        la, lb = int(lens[sa[0]]), int(lens[sb[0]])
        d = _levenshtein_batch(mat[sa, :la], mat[sb, :lb])
        hit = d <= max_dist
        for i, j, dist in zip(keys[sa[hit]], keys[sb[hit]], d[hit]):
            a, b = (int(i), int(j)) if i < j else (int(j), int(i))
            out.append((a, b, int(dist)))
    return out


def editdist_edges(ds: ray.data.Dataset, key_col: str, name_col: str,
                   max_dist: int = 2,
                   num_buckets: int = 8) -> ray.data.Dataset:
    """(key_a, key_b, dist) match edges for all same-block pairs with
    Levenshtein distance <= ``max_dist`` — the verify stage of a
    record-linkage pipeline kept as an edge stream (feed to a
    connected-components fold for entity clusters).  One row per
    record crosses the exchange, pairs are generated in the block's
    bucket."""

    def add_block(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({key_col: batch[key_col].to_pandas(),
                           name_col: batch[name_col].to_pandas()})
        df["blk"] = df[name_col].str.split(" ", n=1).str[0]
        return typed_table(df[["blk", key_col, name_col]],
                           blk=pa.string(),
                           **{key_col: pa.int64(), name_col: pa.string()})

    blocked = ds.map_batches(add_block, batch_format="pyarrow",
                             batch_size=None)

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        rows: list[tuple[int, int, int]] = []
        for _, g in df.groupby("blk", sort=False):
            rows.extend(_block_pair_edges(g[key_col].to_numpy(),
                                          g[name_col].tolist(), max_dist))
        out = pd.DataFrame(rows, columns=["key_a", "key_b", "dist"])
        return typed_table(out, key_a=pa.int64(), key_b=pa.int64(),
                           dist=pa.int64())

    return bucketed_group_apply(blocked, "blk", per_bucket, num_buckets)
