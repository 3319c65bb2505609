"""Round-5 session-60: Mann-Kendall trend test and truncated Katz
centrality — hand-computed pins."""

from __future__ import annotations

import math
import os
import tempfile

import pandas as pd
import pyarrow as pa
import ray.data


def _mini_orders(_cache={}):
    """9 orders in 1995 with daily counts [1, 2, 2, 3, 1]."""
    if "dir" in _cache:
        return _cache["dir"]
    d = tempfile.mkdtemp(prefix="s60_")
    days = (["1995-03-01"] * 1 + ["1995-03-02"] * 2 + ["1995-03-03"] * 2
            + ["1995-03-04"] * 3 + ["1995-03-05"] * 1)
    pd.DataFrame({
        "o_orderkey": range(1, 10),
        "o_orderdate": pd.to_datetime(days).astype("datetime64[us]"),
        "o_totalprice": [100.0] * 9,
    }).to_parquet(os.path.join(d, "orders.parquet"))
    _cache["dir"] = d
    return d


def test_mann_kendall_hand_pin():
    # counts [1,2,2,3,1]: S = +3 + 0 + 0 - 1 = 2; ties 1x2, 2x2 ->
    # tsum = 2*1*9 + 2*1*9 = 36; var18 = 5*4*15 - 36 = 264;
    # z = floor(1000*(2-1)/sqrt(264/18)) = 261
    import dug_ray.queries as q
    out = q.QUERIES["mann_kendall"](_mini_orders()).to_pandas() \
        .sort_values("yr").reset_index(drop=True)
    assert list(out["yr"]) == [0, 1995]
    for _, r in out.iterrows():
        assert int(r["n_days"]) == 5
        assert int(r["s_stat"]) == 2
        assert int(r["var18"]) == 264
        assert int(r["z_milli"]) == math.floor(
            1000.0 * 1 / math.sqrt(264 / 18.0)) == 261


def test_katz_hand_iteration():
    # a->b, a->c, b->c; scale 1e9, attenuation //4, 3 hops:
    # t1 = {b: 250e6, c: 500e6}; t2 = {c: 62.5e6}; t3 = {}
    from dug_ray.stages.graph import katz_centrality

    triples = ray.data.from_arrow(pa.table({
        "subj": ["a", "a", "b"],
        "pred": ["p", "p", "p"],
        "obj": ["b", "c", "c"]}))
    out = katz_centrality(triples).to_pandas()
    got = dict(zip(out["node"], out["katz_mass"]))
    assert got == {"a": 0, "b": 250_000_000, "c": 562_500_000}


def test_katz_empty_graph():
    from dug_ray.stages.graph import katz_centrality

    triples = ray.data.from_arrow(pa.table({
        "subj": pa.array([], pa.string()),
        "pred": pa.array([], pa.string()),
        "obj": pa.array([], pa.string())}))
    ds = katz_centrality(triples)
    assert ds.count() == 0
    assert ds.schema().names == ["node", "katz_mass"]


def test_katz_overflow_raises_on_hub():
    # star: 8 leaves -> hub. Round 1 sends (2**62 // 4) from each leaf, and
    # 8 * 2**60 = 2**63 does not fit int64: the guard must refuse the round
    # instead of letting the per-node sum wrap.
    import pytest

    from dug_ray.stages.graph import katz_centrality

    leaves = [f"leaf{i}" for i in range(8)]
    triples = ray.data.from_arrow(pa.table({
        "subj": leaves, "pred": ["p"] * 8, "obj": ["hub"] * 8}))
    with pytest.raises(OverflowError, match="could pass int64"):
        katz_centrality(triples, scale=2 ** 62).to_pandas()
    # one leaf less fits: 7 * 2**60 < 2**63
    out = katz_centrality(ray.data.from_arrow(pa.table({
        "subj": leaves[:7], "pred": ["p"] * 7, "obj": ["hub"] * 7})),
        iterations=1, scale=2 ** 62).to_pandas()
    assert dict(zip(out["node"], out["katz_mass"]))["hub"] == 7 * 2 ** 60
