"""Round-5 session-5: unpivot round-trip, order-independence of
table_checksum, and the SCD2 interval contract."""

from __future__ import annotations

import pandas as pd
import ray.data

from dug_ray.stages.integrity import table_checksum
from dug_ray.stages.rollup import unpivot


def test_unpivot_melts_wide_to_long():
    wide = pd.DataFrame({"id": [1, 2], "a": [10, 20], "b": [30, 40]})
    out = unpivot(ray.data.from_pandas(wide), ["id"], ["a", "b"]) \
        .to_pandas().sort_values(["id", "measure"]).reset_index(drop=True)
    assert len(out) == 4
    assert out.loc[(out["id"] == 2) & (out["measure"] == "b"),
                   "value"].iloc[0] == 40
    # melt preserves every (id, measure) cell exactly once
    assert set(zip(out["id"], out["measure"])) == \
        {(1, "a"), (1, "b"), (2, "a"), (2, "b")}


def test_grouped_ols_partition_independent_and_exact():
    from dug_ray.stages.stats import grouped_ols
    rng = pd.DataFrame({
        "g": ["a"] * 6 + ["b"] * 4 + ["c"] * 2,
        "x": [1, 2, 3, 4, 5, 6, 10, 20, 30, 40, 7, 7],
        "y": [3, 5, 7, 9, 11, 13, 5, 4, 3, 2, 1, 9],
    })
    one = grouped_ols(ray.data.from_pandas(rng), "g", "x", "y",
                      num_buckets=2).to_pandas().set_index("g").sort_index()
    two = grouped_ols(
        ray.data.from_pandas(rng.sample(frac=1.0, random_state=3))
        .repartition(4), "g", "x", "y",
        num_buckets=3).to_pandas().set_index("g").sort_index()
    pd.testing.assert_frame_equal(one, two)  # bit-identical across splits
    # a: y = 2x + 1 exactly; c: x constant -> degenerate, dropped
    assert one.loc["a", "slope"] == 2.0 and one.loc["a", "intercept"] == 1.0
    assert "c" not in one.index and one.loc["b", "n"] == 4


def test_histogram_quantiles_matches_sort_pick():
    from dug_ray.stages.stats import histogram_quantiles
    import numpy as np
    vals = np.array([5, 1, 9, 1, 7, 3, 3, 3, 8, 2], dtype="int64")
    df = pd.DataFrame({"g": ["x"] * len(vals), "v": vals})
    out = histogram_quantiles(ray.data.from_pandas(df).repartition(3),
                              "g", "v", {"p50": 0.5, "p90": 0.9},
                              num_buckets=2).to_pandas().iloc[0]
    s = np.sort(vals)
    # quantile_disc: sorted[ceil(q*n)] 1-based
    assert out["p50"] == s[int(np.ceil(0.5 * len(s))) - 1]
    assert out["p90"] == s[int(np.ceil(0.9 * len(s))) - 1]
    assert out["n"] == len(vals)


def test_sweep_concurrency_closed_open_ties():
    from dug_ray.stages.stats import sweep_concurrency
    # [0,10) [10,20): end-at-10 retires before start-at-10 -> max 1;
    # [0,10) [5,15) overlap on [5,10) -> max 2 first reached at t=5
    df = pd.DataFrame({
        "g": ["chain", "chain", "lap", "lap"],
        "s": [0, 10, 0, 5],
        "e": [10, 20, 10, 15],
    })
    out = sweep_concurrency(ray.data.from_pandas(df), "g", "s", "e",
                            num_buckets=2).to_pandas().set_index("g")
    assert out.loc["chain", "max_open"] == 1
    assert out.loc["lap", "max_open"] == 2 and out.loc["lap", "at_t"] == 5


def test_hash_left_join_keeps_unmatched_and_null_keys():
    from dug_ray.shuffle import hash_left_join
    left = ray.data.from_pandas(pd.DataFrame({
        "lk": pd.array([1, 2, None, 1], dtype="Int64"),
        "lval": ["a", "b", "c", "d"]}))
    right = ray.data.from_pandas(pd.DataFrame({
        "rk": pd.array([1, 3, None], dtype="Int64"),
        "rval": ["X", "Y", "Z"]}))
    out = hash_left_join(left, right, "lk", "rk").to_pandas()
    # every left row survives; only lk=1 matches (twice); the right-side
    # null key matches nothing (SQL semantics)
    assert len(out) == 4
    got = out.set_index("lval")["rval"].to_dict()
    assert got["a"] == "X" and got["d"] == "X"
    assert pd.isna(got["b"]) and pd.isna(got["c"])


def test_table_profile_counts_nulls_and_distinct():
    from dug_ray.stages.integrity import table_profile
    df = pd.DataFrame({
        "s": ["b", None, "a", "b", None],
        "n": [5, 2, 2, 9, 2],
    })
    out = (table_profile(ray.data.from_pandas(df).repartition(3),
                         ["s", "n"], num_buckets=2)
           .to_pandas().set_index("col"))
    assert out.loc["s", "n_rows"] == 5 and out.loc["s", "n_null"] == 2
    assert out.loc["s", "n_distinct"] == 2
    assert out.loc["s", "min_val"] == "a" and out.loc["s", "max_val"] == "b"
    assert out.loc["n", "n_null"] == 0 and out.loc["n", "n_distinct"] == 3
    # min/max are over the STRING cast: lexicographic, so "2" < "5" < "9"
    assert out.loc["n", "min_val"] == "2" and out.loc["n", "max_val"] == "9"


def test_levenshtein_batch_matches_scalar_dp():
    from dug_ray.stages.resolve import _block_pair_edges

    def ref(a: str, b: str) -> int:
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                               prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    import numpy as np
    names = ["ring", "rings", "rung", "wrong", "ring", "bolt", ""]
    got = _block_pair_edges(np.arange(len(names)), names, max_dist=10)
    want = [(i, j, ref(names[i], names[j]))
            for i in range(len(names)) for j in range(i + 1, len(names))]
    assert sorted(got) == want


def test_pareto_front_merge_invariant():
    from dug_ray.stages.stats import pareto_front
    df = pd.DataFrame({
        "g": ["a"] * 6,
        "price": [1, 2, 2, 3, 5, 5],
        "qty": [4, 9, 1, 9, 9, 12],
    })
    out = pareto_front(ray.data.from_pandas(df).repartition(4),
                       "g", "price", "qty", num_buckets=2).to_pandas()
    got = set(zip(out["price"], out["qty"]))
    # (1,4) survives (cheapest); (2,9) dominates (3,9); (5,12) biggest;
    # (2,1), (3,9), (5,9) dominated
    assert got == {(1, 4), (2, 9), (5, 12)}


def test_table_checksum_order_and_partition_independent():
    df = pd.DataFrame({
        "grp": ["x", "x", "y", "x", "y"],
        "a": [1, 2, 3, 4, 5],
        "b": ["p", "q", "r", "s", "t"],
    })
    shuffled = df.sample(frac=1.0, random_state=7).reset_index(drop=True)
    one = table_checksum(ray.data.from_pandas(df), "grp", ["a", "b"],
                         num_buckets=2).to_pandas()
    # different row order AND different block split must give the same sums
    two = table_checksum(
        ray.data.from_pandas(shuffled).repartition(3), "grp", ["a", "b"],
        num_buckets=4).to_pandas()
    m1 = one.set_index("grp").sort_index()
    m2 = two.set_index("grp").sort_index()
    pd.testing.assert_frame_equal(m1, m2)
    assert m1.loc["x", "n_rows"] == 3 and m1.loc["y", "n_rows"] == 2
    # a single changed cell changes the group checksum
    df2 = df.copy()
    df2.loc[0, "b"] = "P"
    three = table_checksum(ray.data.from_pandas(df2), "grp", ["a", "b"],
                           num_buckets=2).to_pandas().set_index("grp")
    assert three.loc["x", "checksum"] != m1.loc["x", "checksum"]
    assert three.loc["y", "checksum"] == m1.loc["y", "checksum"]
