"""Shuffle helpers: deterministic bucketing, bucketed grouped apply and
the sorted-distinct set kernel.

``Dataset.groupby(key).map_groups(fn)`` invokes ``fn`` once per *group*; at
10^5-10^9 distinct keys the per-group Python call dominates wall time. The
scalable shape used throughout this engine is **bucketed grouped apply**:

1. add a deterministic hash bucket of the key (vectorized SipHash %
   num_buckets — stable across processes, unlike Python ``hash()``;
   required for resume);
2. ``groupby('_bucket')`` — the shuffle now moves the same rows but forms
   only ``num_buckets`` groups;
3. inside each bucket, ``fn`` groups the whole bucket by the real key in
   one whole-table pass: a pandas ``groupby`` with built-in aggregations
   (``bucketed_group_apply``) or Arrow compute kernels
   (``bucketed_table_apply``). Either way Python runs once per bucket,
   never once per key.

Every row of a key lands in exactly one bucket, so per-key results are exact.
``num_buckets`` bounds per-task memory to ~``n/num_buckets`` rows — size it
to the cluster (hundreds-thousands at 100 TB). Hot-key skew inside a bucket
is handled upstream by per-batch partial aggregation (the combiner), which
collapses hot keys before the shuffle (SURVEY.md §4 skew row).

Sorted-distinct ``|``-joined string sets (the searchable dict's
``search_terms``, ``concepts``, ``identifiers``, answer node lists) are one
Arrow kernel, ``join_distinct``: sort by keys and value, drop adjacent
duplicates, cut list offsets at key boundaries, ``binary_join``. A pandas
``agg`` with a Python set-join callable would call Python once per group;
this kernel calls it once per table. ``split_joined`` is its inverse, and
``union_joined`` merges partial sets that crossed an exchange as joined
strings. First-writer-wins rows (``row_number() = 1`` per key) are the
same cut on a stable sort, ``first_rows``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

BUCKET_COL = "_bucket"


def typed_table(df: pd.DataFrame, **types) -> pa.Table:
    """``pa.Table.from_pandas`` with explicit per-column Arrow types.

    An EMPTY pandas frame's object columns infer as Arrow ``null`` type,
    which leaks divergent block schemas into downstream shuffles/unions
    (Ray warns "divergent schemas ... may lead to unexpected behavior").
    Building each column with its declared type keeps empty and populated
    batches schema-identical. Column order = keyword order."""
    return pa.table({c: pa.array(df[c], type=t, from_pandas=True)
                     for c, t in types.items()})


def _stable_hash_array(keys: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Full-width deterministic uint64 hash of a key column.

    Uses ``pandas.util.hash_array`` (vectorized SipHash with the fixed
    default key — stable across processes; the env pins the pandas version,
    which resume depends on) over the Python objects of the key values.
    Hashing only the *distinct* values of the batch via dictionary encoding
    keeps this O(unique) instead of O(rows). A string dictionary becomes
    its object array in one ``to_numpy`` call (the same ``str`` values
    ``to_pylist`` gives, without a Python list per batch); other types keep
    ``to_pylist``, whose objects (ints, dates, ...) SipHash differently
    from their numpy scalars. Null keys hash to 0 (documented semantics:
    nulls form one group)."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    enc = keys.dictionary_encode()
    values = enc.dictionary
    dict_hash = pd.util.hash_array(
        values.to_numpy(zero_copy_only=False)
        if pa.types.is_string(values.type) or pa.types.is_large_string(values.type)
        else np.asarray(values.to_pylist(), dtype=object))
    codes = enc.indices
    if codes.null_count:
        # null keys encode as null indices; -1 fancy-indexes the appended slot
        codes = pc.fill_null(codes, -1)
        dict_hash = np.append(dict_hash, np.uint64(0))
    codes_np = codes.to_numpy(zero_copy_only=False).astype(np.int64)
    return dict_hash[codes_np].astype(np.uint64)


def stable_bucket_array(keys: pa.ChunkedArray | pa.Array, num_buckets: int) -> pa.Array:
    """Deterministic hash bucket of a key column as an int32 Arrow array
    (see _stable_hash_array; nulls all route to bucket 0)."""
    return pa.array((_stable_hash_array(keys) % num_buckets).astype(np.int32))


def add_bucket(ds: ray.data.Dataset, key: str | list[str],
               num_buckets: int) -> ray.data.Dataset:
    """Append the deterministic bucket of ``key`` — a column name or a list
    of names (composite keys combine per-column hashes; no string-concat
    key column needed)."""
    keys = [key] if isinstance(key, str) else list(key)

    def _b(batch: pa.Table) -> pa.Table:
        h = _stable_hash_array(batch[keys[0]])
        for k2 in keys[1:]:
            h = h * np.uint64(1_000_003) + _stable_hash_array(batch[k2])
        return batch.append_column(
            BUCKET_COL, pa.array((h % num_buckets).astype(np.int32)))

    return ds.map_batches(_b, batch_format="pyarrow", batch_size=None)


def bucketed_group_apply(
    ds: ray.data.Dataset,
    key: str | list[str],
    fn: Callable[[pd.DataFrame], pd.DataFrame],
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Apply ``fn`` (a vectorized whole-partition pandas transform that must
    itself group by ``key``) to each hash bucket of ``key`` (a single
    column name or a composite list).

    ``fn`` sees every row of each key it receives — exact grouped semantics
    with only ``num_buckets`` Python invocations."""

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out = fn(group.drop(columns=[BUCKET_COL]))
        return out

    bucketed = add_bucket(ds, key, num_buckets)
    return bucketed.groupby(BUCKET_COL).map_groups(per_bucket, batch_format="pandas")


def bucketed_table_apply(
    ds: ray.data.Dataset,
    key: str | list[str],
    fn: Callable[[pa.Table], pa.Table],
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """``bucketed_group_apply`` for a whole-bucket Arrow transform ``fn``.

    Ray builds each output block by concatenating the per-bucket tables
    without combining their chunks, and ``write_parquet`` (pyarrow
    ``write_dataset`` with no minimum row-group size) writes every chunk
    as its own row group. Combining the chunks here, in the same fused
    task, keeps one row group per written block, as with pandas blocks."""

    def per_bucket(group: pa.Table) -> pa.Table:
        return fn(group.drop_columns([BUCKET_COL]))

    bucketed = add_bucket(ds, key, num_buckets)
    out = bucketed.groupby(BUCKET_COL).map_groups(per_bucket, batch_format="pyarrow")
    return out.map_batches(lambda t: t.combine_chunks(), batch_format="pyarrow",
                           batch_size=None)


def _decoded(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return col.dictionary_decode() if pa.types.is_dictionary(col.type) else col


def _starts(col: pa.Array) -> np.ndarray:
    """Boolean mask: row i differs from row i-1 (row 0 always True; two
    nulls are equal, a null and a value are not)."""
    a, b = col.slice(1), col.slice(0, len(col) - 1)
    ne = pc.or_kleene(pc.not_equal(a, b), pc.xor(pc.is_null(a), pc.is_null(b)))
    return np.concatenate(
        [[True], pc.fill_null(ne, False).to_numpy(zero_copy_only=False)])


def first_rows(table: pa.Table, key: str, order: list[str]) -> pa.Table:
    """``SELECT * ... QUALIFY row_number() OVER (PARTITION BY key ORDER BY
    order) = 1 ORDER BY key`` in Arrow compute: one whole row per distinct
    ``key``, the least by ``order`` (ascending, nulls last), in ascending
    key order. The sort is stable, so a tie on every ``order`` column
    keeps the row that came first in ``table``."""
    if table.num_rows == 0:
        return table
    idx = pc.sort_indices(table.select([key, *order]), null_placement="at_end",
                          sort_keys=[(c, "ascending") for c in [key, *order]])
    runs = _starts(_decoded(table[key]).take(idx))
    return table.take(idx.filter(pa.array(runs)))


def join_distinct(table: pa.Table, keys: list[str], value: str) -> pa.Table:
    """``SELECT keys, string_agg(DISTINCT value, '|' ORDER BY value) ...
    GROUP BY keys ORDER BY keys`` in Arrow compute, with no Python per group.

    One row per distinct key tuple of ``table`` (nulls sort last and form
    one group), in ascending key order; columns ``keys + [value]``. Null
    values are skipped; a key whose values are all null gets ``''``.
    Strings order by UTF-8 bytes — the order of DuckDB's ``string_agg(...
    ORDER BY ...)`` and of Python's ``sorted`` on ``str``. Two calls on the
    same table therefore return the same key column, row for row."""
    cols = [*keys, value]
    arrs = {c: _decoded(table[c]) for c in cols}
    n = len(arrs[value])
    if n == 0:
        return pa.table({**{k: arrs[k] for k in keys},
                         value: pa.array([], type=pa.string())})
    order = pc.sort_indices(pa.table(arrs), null_placement="at_end",
                            sort_keys=[(c, "ascending") for c in cols])
    arrs = {c: a.take(order) for c, a in arrs.items()}
    new_key = np.logical_or.reduce([_starts(arrs[k]) for k in keys])
    vals = arrs[value]
    keep = (new_key | _starts(vals)) & pc.is_valid(vals).to_numpy(zero_copy_only=False)
    first = pa.array(np.flatnonzero(new_key))
    kept_before = np.concatenate([[0], np.cumsum(keep)])
    offsets = pa.array(kept_before[np.append(first, n)], type=pa.int32())
    sets = pa.ListArray.from_arrays(offsets, vals.filter(pa.array(keep)))
    out = {k: arrs[k].take(first) for k in keys}
    out[value] = pc.binary_join(sets, "|")
    return pa.table(out)


def split_joined(table: pa.Table, keys: list[str], value: str) -> pa.Table:
    """Inverse of ``join_distinct`` for merging partial sets: one row per
    ``|``-separated element of ``value``, columns ``keys + [value]``. An
    empty or null set becomes one null row, so its key still reaches the
    merged output (``join_distinct`` then gives it ``''``)."""
    col = _decoded(table[value])
    empty = pc.fill_null(pc.equal(col, ""), True)
    parts = pc.split_pattern(pc.if_else(empty, pa.scalar(None, col.type), col), "|")
    # a null list still contributes one (null) row to its key
    parts = pc.if_else(empty, pa.scalar([None], parts.type), parts)
    rows = pc.list_parent_indices(parts)
    out = {k: _decoded(table[k]).take(rows) for k in keys}
    out[value] = pc.list_flatten(parts)
    return pa.table(out)


def union_joined(table: pa.Table, keys: list[str], value: str) -> pa.Table:
    """Merge ``|``-joined partial sets per key: the sorted-distinct union
    (``join_distinct`` over ``split_joined``)."""
    return join_distinct(split_joined(table, keys, value), keys, value)


def distinct_rows(ds: ray.data.Dataset, cols: list[str], num_buckets: int = 64) -> ray.data.Dataset:
    """Exact multi-column distinct: per-batch combiner + bucketed final dedup."""

    def per_batch(batch: pa.Table) -> pa.Table:
        df = batch.select(cols).to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False).cast(batch.select(cols).schema)

    partial = ds.map_batches(per_batch, batch_format="pyarrow", batch_size=None)
    return bucketed_group_apply(
        partial, cols[0], lambda df: df.drop_duplicates(), num_buckets)


def _tagged_union(left: ray.data.Dataset, right: ray.data.Dataset,
                  left_key: str, right_key: str):
    """Shared two-sided exchange prep for the partitioned joins: tag each
    side, cast the join key to a common ``_jk`` string, widen both sides to
    the column union (typed defaults, see below) and union them.  Returns
    ``(unioned_ds, lcols, rcols)``; the caller supplies the per-bucket
    merge semantics (inner, anti, ...).

    Column names on the two sides must be fully disjoint (including the
    key columns): pandas would silently suffix shared names to _x/_y inside
    the bucket merge and the widened union would mix both sides' values
    under one type. Rejected up front."""

    def tag(side: str, key: str):
        def _t(batch: pa.Table) -> pa.Table:
            b = batch.append_column("_side", pa.nulls(len(batch), pa.string()).fill_null(side))
            if key != "_jk":
                b = b.append_column("_jk", pc.cast(b[key], pa.string()))
            return b
        return _t

    lt = left.map_batches(tag("l", left_key), batch_format="pyarrow", batch_size=None)
    rt = right.map_batches(tag("r", right_key), batch_format="pyarrow", batch_size=None)

    def _arrow_type(t):
        # pandas-backed datasets report numpy dtypes, parquet-backed report
        # Arrow types — normalize (object dtype -> string)
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(t)
        except (pa.ArrowNotImplementedError, TypeError, ValueError):
            return pa.string()

    lsch, rsch = left.schema(), right.schema()
    lcols, rcols = list(lsch.names), list(rsch.names)
    shared = set(lcols) & set(rcols)
    if shared:
        raise ValueError(
            f"hash_join requires disjoint column names on the two sides; "
            f"shared: {sorted(shared)} — rename one side before joining")
    reserved = {"_side", "_jk", BUCKET_COL} & (set(lcols) | set(rcols))
    if reserved:
        raise ValueError(
            f"hash_join reserves column names {sorted(reserved)}; "
            f"rename them before joining")
    types = {c: _arrow_type(t) for c, t in
             list(zip(rsch.names, rsch.types)) + list(zip(lsch.names, lsch.types))}

    # union requires matching schemas: widen each side to the column union.
    # Other-side integer/bool columns get typed DEFAULTS (0 / false), not
    # nulls: an int64 column containing nulls turns float64 in the pandas
    # bucket merge and silently corrupts values >= 2^53 (the per-bucket
    # merge reads only each row's own side, so the filler is never seen).
    all_cols = list(dict.fromkeys(lcols + rcols))

    def _filler(n: int, t: pa.DataType) -> pa.Array:
        if pa.types.is_integer(t):
            return pa.nulls(n, t).fill_null(0)
        if pa.types.is_boolean(t):
            return pa.nulls(n, t).fill_null(False)
        return pa.nulls(n, t)

    def widen(batch: pa.Table) -> pa.Table:
        out = {}
        for c in all_cols:
            out[c] = batch[c] if c in batch.column_names \
                else _filler(len(batch), types[c])
        out["_jk"] = batch["_jk"]
        out["_side"] = batch["_side"]
        return pa.table(out)

    u = (lt.map_batches(widen, batch_format="pyarrow", batch_size=None)
         .union(rt.map_batches(widen, batch_format="pyarrow", batch_size=None)))
    return u, lcols, rcols


def hash_join(left: ray.data.Dataset, right: ray.data.Dataset,
              left_key: str, right_key: str,
              num_buckets: int = 32,
              coalesce_blocks: int | None = None) -> ray.data.Dataset:
    """Partitioned hash join for two LARGE sides (neither is broadcast).

    The portable Ray Data pattern (no reliance on a Dataset.join API):
    tag each side, bucket both on the join key's stable hash, union, and
    merge matching buckets pairwise inside the bucketed grouped apply —
    each bucket task sees every row of its keys from BOTH sides, so the
    join is exact. ``num_buckets`` bounds per-task memory; salt hot keys
    upstream if one key dominates (same combiner discipline as the KG
    canonicalization shuffle). Quirk: a fully-empty result Dataset loses
    its column schema (Ray pandas-block behavior) — guard consumers.
    Column names on the two sides must be fully disjoint (see
    ``_tagged_union``). ``coalesce_blocks``: repartition the tagged union
    before the exchange — set it when BOTH sides are combiner outputs
    (many tiny blocks), where the sort exchange otherwise pays per-block
    fixed cost (the fk_audit/bfs block-count discipline); leave None for
    corpus-sized sides."""
    u, lcols, rcols = _tagged_union(left, right, left_key, right_key)
    if coalesce_blocks:
        u = u.repartition(coalesce_blocks)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # SQL inner-join semantics: null keys never match. (They all route
        # to bucket 0 and pandas merge WOULD match NaN==NaN — drop first.)
        df = df[df["_jk"].notna()]
        li = df[df["_side"] == "l"][lcols + ["_jk"]]
        ri = df[df["_side"] == "r"][rcols + ["_jk"]]
        out = li.merge(ri, on="_jk", how="inner", sort=False)
        return out.drop(columns=["_jk"])

    return bucketed_group_apply(u, "_jk", per_bucket, num_buckets)


def hash_left_join(left: ray.data.Dataset, right: ray.data.Dataset,
                   left_key: str, right_key: str,
                   num_buckets: int = 32) -> ray.data.Dataset:
    """Partitioned LEFT OUTER join: every ``left`` row appears exactly
    once per match, or once with the right columns null when unmatched.

    SQL semantics throughout: a null left key matches nothing but the
    row is KEPT (pandas ``merge`` would match NaN==NaN, so null-keyed
    left rows bypass the merge and are appended with null right columns).
    Same single exchange as ``hash_join``; unmatched right columns come
    back as NaN/None — callers fill + retype."""
    u, lcols, rcols = _tagged_union(left, right, left_key, right_key)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        li = df[df["_side"] == "l"]
        lm, ln = li[li["_jk"].notna()], li[li["_jk"].isna()]
        ri = df[(df["_side"] == "r") & df["_jk"].notna()][rcols + ["_jk"]]
        out = lm[lcols + ["_jk"]].merge(ri, on="_jk", how="left",
                                        sort=False).drop(columns=["_jk"])
        if len(ln):
            out = pd.concat([out, ln[lcols].reindex(columns=out.columns)],
                            ignore_index=True)
        return out

    return bucketed_group_apply(u, "_jk", per_bucket, num_buckets)


def hash_anti_join(left: ray.data.Dataset, right: ray.data.Dataset,
                   left_key: str, right_key: str,
                   num_buckets: int = 32) -> ray.data.Dataset:
    """Partitioned ANTI-join: the rows of ``left`` whose key matches no row
    of ``right`` (both sides large; neither broadcast — the exact-subtract
    half of the Bloom decontamination path, ``bloom.bloom_anti_join``).

    Semantics are SQL ``NOT EXISTS``: a null left key matches nothing, so
    null-keyed left rows are KEPT. Output columns = ``left``'s columns.
    Same exchange as ``hash_join`` (tag, widen, union, bucket on the key
    hash), but each bucket keeps left rows absent from the right key set
    instead of merging."""
    u, lcols, rcols = _tagged_union(left, right, left_key, right_key)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        li = df[df["_side"] == "l"]
        rk = df.loc[(df["_side"] == "r") & df["_jk"].notna(), "_jk"]
        keep = li["_jk"].isna() | ~li["_jk"].isin(rk)
        return li.loc[keep, lcols]

    return bucketed_group_apply(u, "_jk", per_bucket, num_buckets)


def hash_full_join(left: ray.data.Dataset, right: ray.data.Dataset,
                   left_key: str, right_key: str,
                   num_buckets: int = 32) -> ray.data.Dataset:
    """Partitioned FULL OUTER join: every row of BOTH sides appears —
    matched rows once per match, unmatched rows once with the other
    side's columns null.

    SQL semantics: a null key matches nothing but the row is KEPT
    (from whichever side it came).  Same single exchange as
    ``hash_join``; unmatched columns come back as NaN/None — callers
    fill + retype (see queries.q_nation_parity).  Column names on the
    two sides must be fully disjoint (``_tagged_union``)."""
    u, lcols, rcols = _tagged_union(left, right, left_key, right_key)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        li = df[df["_side"] == "l"]
        ri = df[df["_side"] == "r"]
        lm, ln = li[li["_jk"].notna()], li[li["_jk"].isna()]
        rm, rn = ri[ri["_jk"].notna()], ri[ri["_jk"].isna()]
        out = lm[lcols + ["_jk"]].merge(rm[rcols + ["_jk"]], on="_jk",
                                        how="outer", sort=False) \
            .drop(columns=["_jk"])
        extra = []
        if len(ln):
            extra.append(ln[lcols].reindex(columns=out.columns))
        if len(rn):
            extra.append(rn[rcols].reindex(columns=out.columns))
        if extra:
            out = pd.concat([out, *extra], ignore_index=True)
        return out

    return bucketed_group_apply(u, "_jk", per_bucket, num_buckets)
