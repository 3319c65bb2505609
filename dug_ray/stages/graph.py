"""Graph-profile operators over the constructed KG.

The reference serves its KG through Elasticsearch and never profiles it;
a 10^12-document triple table needs first-class graph statistics for
curation and skew planning (which concepts are hubs, which predicates
dominate — exactly the hot keys the canonicalize/expand shuffles salt,
see dug_ray/stages/canonicalize.py).  Two operators:

- ``concept_cooccurrence`` — concept/concept co-annotation edges: two
  canonical CURIEs are connected when they annotate the same element,
  weighted by the number of shared elements.  This is the classic KG
  enrichment edge the reference's concept->element mapping implies but
  never materializes (reference: src/dug/core/crawler.py builds only
  concept->element links).
- ``triple_degrees`` — per-subject degree profile of the full triple
  table (row count, distinct predicates, distinct objects).
- ``pagerank`` — fixed-point integer PageRank over the directed
  (subj, obj) graph: ranks are int64 mass units (total mass ``scale``),
  every division is floor division, so partial sums are associative and
  order-independent — the whole iteration is bit-exact across engines
  and partitionings (same determinism-by-construction discipline as the
  integer-milli dup_chunk ratio and the HLL inverse power sum).
- ``triangle_counts`` — per-node triangle membership counts over the
  undirected co-annotation graph (wedge enumeration + closing-edge
  match, both bucketed).
- ``cooccurrence_pmi`` — PMI-weighted co-annotation edges (ontology-
  bounded marginals broadcast once; one libm ln over an exact integer
  ratio, bit-identical to the SQL oracle).

Scale notes (100 TB): co-occurrence pairing is quadratic in
concepts-per-element, but elements are 8-token chunks so the per-group
fan-out is bounded by a small constant; the pair stream is then
count-combined per batch BEFORE the final (subj, obj) shuffle, so the
exchange carries partial counts, not raw pairs.  ``triple_degrees``
pre-aggregates (subj, pred, obj) multiplicities per batch — duplicate
triples collapse in the combiner — and only the reduced stream shuffles
by subject.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from dug_ray.shuffle import bucketed_group_apply, distinct_rows, typed_table


def concept_cooccurrence(linked: ray.data.Dataset,
                         num_buckets: int = 32,
                         distinct_mentions: ray.data.Dataset | None = None,
                         ) -> ray.data.Dataset:
    """(subj, obj, n_elements) co-annotation edges, subj < obj.

    Stage 1 distinct-ifies (element_id, canonical_curie) with a per-batch
    combiner + element-bucketed final dedup (one mention of a concept per
    element counts once).  Stage 2 expands pairs WITHIN each element
    bucket (elements are co-located by the stage-1 hash, so the pandas
    self-merge sees every concept of an element) and emits per-bucket
    partial pair counts.  Stage 3 sums partials under a (subj) bucket
    hash — the only all-to-all carries (subj, obj, partial_n) rows.

    ``distinct_mentions``: a precomputed stage-1 result (distinct
    (element_id, canonical_curie) rows) — pass it when the caller already
    materialized that reduction (cooccurrence_pmi does, for its
    marginals) so the corpus-sized distinct exchange runs once, not twice.
    """
    dm = distinct_mentions if distinct_mentions is not None else \
        distinct_rows(
            linked.select_columns(["element_id", "canonical_curie"]),
            ["element_id", "canonical_curie"], num_buckets)

    def pair_partials(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized within-element pair expansion: self-merge on
        # element_id, keep the ordered half of the cross product
        m = df.merge(df, on="element_id")
        m = m[m["canonical_curie_x"] < m["canonical_curie_y"]]
        g = (m.groupby(["canonical_curie_x", "canonical_curie_y"])
              .size().reset_index(name="n"))
        return g.rename(columns={"canonical_curie_x": "subj",
                                 "canonical_curie_y": "obj"})

    partials = bucketed_group_apply(dm, "element_id", pair_partials,
                                    num_buckets)
    # keep partial blocks schema-stable even when a bucket yields no pairs
    partials = partials.map_batches(
        lambda b: typed_table(b.to_pandas(), subj=pa.string(),
                              obj=pa.string(), n=pa.int64()),
        batch_format="pyarrow", batch_size=None)

    def merge(df: pd.DataFrame) -> pa.Table:
        g = (df.groupby(["subj", "obj"], as_index=False)
               .agg(n_elements=("n", "sum")))
        return typed_table(g, subj=pa.string(), obj=pa.string(),
                           n_elements=pa.int64())

    return bucketed_group_apply(partials, "subj", merge, num_buckets)


class PageRankEngine:
    """Shared machinery of ``pagerank`` (in-session) and
    ``pagerank_resumable`` (manifest-checkpointed): edge pinning, the
    static spine, and the two-exchange iteration step.

    Fixed-point variant chosen for exactness, not an approximation of the
    float algorithm: total mass ``scale`` (int64 units), damping 85/100,
    every division floor division, so the result is bit-identical for any
    partitioning and any engine (DuckDB oracle uses the same expressions)
    — and therefore also across a kill/resume boundary.  Mass lost to
    floor remainders and dangling nodes is dropped, not redistributed —
    documented semantics of this variant.

    Scale shape (100 TB): Pregel-style fused iteration.  The edge side is
    distinct-ified, tagged and pinned ONCE in the object store; the rank
    state (node, outdeg, rank) is |V|-sized (never a driver pull).  Each
    iteration is exactly TWO bucketed exchanges: (1) rank rows co-located
    with their subjects' edges by the shared node-hash bucket, share =
    rank // outdeg computed and message mass pre-summed per destination
    INSIDE the bucket (the only all-to-all that moves |E| carries partial
    sums, not raw edges' worth of messages), then (2) partial sums + the
    static zero-row spine regrouped by destination to fold the damping
    update.  Execution economics, learned the slow way: (a) anything a
    stage consumes more than once per execution is materialized first —
    probing a lazy Dataset's schema (as a generic join must) re-executes
    its whole upstream chain; (b) each rank frontier has exactly ONE
    consumer, so the whole iteration chain stays lazy and runs as one
    streaming execution (a checkpoint every 4 rounds bounds plan depth);
    (c) the exchange width adapts to the edge count — a small graph must
    not pay ``num_buckets`` task latencies per stage, a 100 TB one needs
    them all.
    """

    RANK_SCHEMA = dict(node=pa.string(), d=pa.int64(), rank_mass=pa.int64())

    def __init__(self, triples: ray.data.Dataset, scale: int = 10 ** 12,
                 num_buckets: int = 32, seed_prefix: str | None = None):
        self.scale = scale
        self.seed_prefix = seed_prefix
        edges = distinct_rows(triples.select_columns(["subj", "obj"]),
                              ["subj", "obj"], num_buckets)
        edges = edges.map_batches(
            lambda b: typed_table(b.to_pandas(), subj=pa.string(),
                                  obj=pa.string()),
            batch_format="pyarrow", batch_size=None).materialize()
        n_edges = edges.count()
        nb = max(2, min(num_buckets, n_edges // 50_000 + 2))
        if nb < num_buckets:
            edges = edges.repartition(nb).materialize()
        self.num_buckets = nb
        self.edges = edges

        # static spine: every node with its out-degree (0 for pure sinks),
        # built in one exchange from per-batch partials
        def _deg_and_nodes(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            g = (df.groupby("subj").size().reset_index(name="d")
                 .rename(columns={"subj": "node"}))
            o = pd.DataFrame({"node": df["obj"].drop_duplicates(), "d": 0})
            return typed_table(pd.concat([g, o], ignore_index=True),
                               node=pa.string(), d=pa.int64())

        self.spine = bucketed_group_apply(
            edges.map_batches(_deg_and_nodes, batch_format="pyarrow",
                              batch_size=None),
            "node",
            lambda df: typed_table(
                df.groupby("node", as_index=False).agg(d=("d", "sum")),
                node=pa.string(), d=pa.int64()),
            self.num_buckets).materialize()

        self.n_nodes = self.spine.count()
        if self.n_nodes == 0:
            return
        if seed_prefix is None:
            self.init = scale // self.n_nodes
            self.base = (15 * scale) // (100 * self.n_nodes)
        else:
            # personalized variant: ALL teleport mass (init and the 15%
            # restart share) goes to the seed set, uniformly
            p = seed_prefix

            def _seed_count(batch: pa.Table) -> pa.Table:
                df = batch.to_pandas()
                return pa.table({"n": pa.array(
                    [int(df["node"].str.startswith(p).sum())],
                    pa.int64())})

            self.n_seeds = int(sum(
                r["n"] for r in self.spine.map_batches(
                    _seed_count, batch_format="pyarrow",
                    batch_size=None).take_all()))
            if self.n_seeds == 0:
                raise ValueError(
                    f"no seed nodes with prefix {seed_prefix!r}")
            self.init = scale // self.n_seeds
            self.base = (15 * scale) // (100 * self.n_seeds)

        MSG = dict(node=pa.string(), obj=pa.string(), rank_mass=pa.int64(),
                   d=pa.int64(), side=pa.string())

        def _edge_side(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas().rename(columns={"subj": "node"})
            df["rank_mass"] = 0
            df["d"] = 0
            df["side"] = "e"
            return typed_table(df, **MSG)

        # lazy: a trivial map over the PINNED edges — re-running it per
        # iteration is cheaper than holding a second |E| copy in the store
        self._edge_side = edges.map_batches(_edge_side,
                                            batch_format="pyarrow",
                                            batch_size=None)

        def _zero_rows(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            df["s"] = 0
            return typed_table(df, node=pa.string(), d=pa.int64(),
                               s=pa.int64())

        self._zero_rows = self.spine.map_batches(
            _zero_rows, batch_format="pyarrow", batch_size=None)
        self._msg_schema = MSG

    def empty_result(self) -> ray.data.Dataset:
        return ray.data.from_arrow(typed_table(
            pd.DataFrame({"node": [], "rank_mass": []}),
            node=pa.string(), rank_mass=pa.int64()))

    def initial_ranks(self) -> ray.data.Dataset:
        def _init_rank(batch: pa.Table, init=self.init,
                       p=self.seed_prefix) -> pa.Table:
            df = batch.to_pandas()
            if p is None:
                df["rank_mass"] = init
            else:
                df["rank_mass"] = np.where(
                    df["node"].str.startswith(p), init, 0)
            return typed_table(df, **self.RANK_SCHEMA)

        return self.spine.map_batches(_init_rank, batch_format="pyarrow",
                                      batch_size=None)

    def step(self, ranks: ray.data.Dataset) -> ray.data.Dataset:
        """One PageRank round: two bucketed exchanges, lazy result."""
        MSG, base, seed_p = self._msg_schema, self.base, self.seed_prefix

        def _rank_side(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            df["obj"] = None
            df["side"] = "r"
            return typed_table(df, **MSG)

        def _messages(df: pd.DataFrame) -> pa.Table:
            r = df[df["side"] == "r"]
            r = r[r["d"] > 0]
            shares = pd.DataFrame({
                "node": r["node"].to_numpy(),
                "share": r["rank_mass"].to_numpy() // r["d"].to_numpy()})
            m = df[df["side"] == "e"][["node", "obj"]].merge(shares,
                                                             on="node")
            g = (m.groupby("obj", as_index=False).agg(s=("share", "sum"))
                 .rename(columns={"obj": "node"}))
            g["d"] = 0
            return typed_table(g, node=pa.string(), d=pa.int64(),
                               s=pa.int64())

        def _update(df: pd.DataFrame) -> pa.Table:
            g = df.groupby("node", as_index=False).agg(s=("s", "sum"),
                                                       d=("d", "max"))
            if seed_p is None:
                b = base
            else:
                b = np.where(g["node"].str.startswith(seed_p), base, 0)
            g["rank_mass"] = b + (85 * g["s"].to_numpy()) // 100
            return typed_table(g, **self.RANK_SCHEMA)

        rank_side = ranks.map_batches(_rank_side, batch_format="pyarrow",
                                      batch_size=None)
        msgs = bucketed_group_apply(self._edge_side.union(rank_side),
                                    "node", _messages, self.num_buckets)
        return bucketed_group_apply(msgs.union(self._zero_rows), "node",
                                    _update, self.num_buckets)


def pagerank(triples: ray.data.Dataset, iterations: int = 3,
             scale: int = 10 ** 12, num_buckets: int = 32) -> ray.data.Dataset:
    """(node, rank_mass) after ``iterations`` rounds of integer PageRank
    (see PageRankEngine for the semantics and the scale shape)."""
    eng = PageRankEngine(triples, scale, num_buckets)
    if eng.n_nodes == 0:
        return eng.empty_result()
    ranks = eng.initial_ranks()
    for i in range(iterations):
        ranks = eng.step(ranks)
        if (i + 1) % 4 == 0 and (i + 1) < iterations:
            ranks = ranks.materialize()
    return ranks.select_columns(["node", "rank_mass"])


def personalized_pagerank(triples: ray.data.Dataset,
                          seed_prefix: str = "MONDO:",
                          iterations: int = 3, scale: int = 10 ** 12,
                          num_buckets: int = 32) -> ray.data.Dataset:
    """Personalized PageRank: identical integer fixed-point iteration to
    ``pagerank`` but ALL teleport mass (the initial distribution and the
    15% restart share) goes uniformly to the nodes matching
    ``seed_prefix`` — the "what matters around the disease concepts"
    ranking a KG curation pass reads next to the global one.  Same scale
    shape as pagerank: pinned edges, two bucketed exchanges per round."""
    eng = PageRankEngine(triples, scale, num_buckets,
                         seed_prefix=seed_prefix)
    if eng.n_nodes == 0:
        return eng.empty_result()
    ranks = eng.initial_ranks()
    for i in range(iterations):
        ranks = eng.step(ranks)
        if (i + 1) % 4 == 0 and (i + 1) < iterations:
            ranks = ranks.materialize()
    return ranks.select_columns(["node", "rank_mass"])


def katz_centrality(triples: ray.data.Dataset, iterations: int = 3,
                    scale: int = 10 ** 9, alpha_div: int = 4,
                    num_buckets: int = 32) -> ray.data.Dataset:
    """(node, katz_mass): truncated integer Katz series over the directed
    distinct (subj, obj) graph — katz[v] = Σ_{k=1..K} t_k[v] with
    t_0 ≡ ``scale`` and t_k[v] = Σ_{u→v} t_{k-1}[u] // ``alpha_div``
    (attenuation 1/alpha_div per hop, floor division per edge message, so
    every partial sum is associative and the result is bit-exact across
    engines and partitionings — the pagerank fixed-point discipline
    WITHOUT out-degree normalization).  Complements pagerank /
    eigencentrality: Katz credits every bounded incoming walk, so a node
    fed by many low-degree sources outranks one fed by a single hub
    (reference has no graph profiling at all; this is curation-side
    signal over the constructed KG, same motivation as pagerank above).

    Scale shape (100 TB): edges distinct-ified and PINNED once; each
    round is exactly two bucketed exchanges — (1) state co-located with
    its out-edges by source bucket, per-destination message mass
    pre-summed inside the bucket, (2) messages + carried state folded by
    destination.

    Raises ``OverflowError`` before a round whose mass could pass int64:
    a round adds at most (max t // alpha_div) x max indegree to any node,
    so it runs only while max katz + that bound < 2**63 (the DuckDB
    oracle sums in HUGEINT and never wraps; shrink ``scale`` instead)."""
    edges = distinct_rows(triples.select_columns(["subj", "obj"]),
                          ["subj", "obj"], num_buckets)
    edges = edges.map_batches(
        lambda b: typed_table(b.to_pandas(), subj=pa.string(),
                              obj=pa.string()),
        batch_format="pyarrow", batch_size=None).materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_arrow(typed_table(
            pd.DataFrame({"node": [], "katz_mass": []}),
            node=pa.string(), katz_mass=pa.int64()))
    nb = max(2, min(num_buckets, n_edges // 50_000 + 2))
    max_indeg = int(edges.groupby("obj").count().max("count()"))

    def _nodes(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        n = pd.concat([df["subj"], df["obj"]]).drop_duplicates()
        return typed_table(pd.DataFrame({"node": n}), node=pa.string())

    spine = bucketed_group_apply(
        edges.map_batches(_nodes, batch_format="pyarrow", batch_size=None),
        "node",
        lambda df: typed_table(df.drop_duplicates(subset=["node"]),
                               node=pa.string()),
        nb).materialize()

    STATE = dict(node=pa.string(), t=pa.int64(), katz=pa.int64())
    MSG = dict(node=pa.string(), obj=pa.string(), t=pa.int64(),
               side=pa.string())

    def _init(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["t"] = scale
        df["katz"] = 0
        return typed_table(df, **STATE)

    state = spine.map_batches(_init, batch_format="pyarrow",
                              batch_size=None)

    def _edge_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().rename(columns={"subj": "node"})
        df["t"] = 0
        df["side"] = "e"
        return typed_table(df, **MSG)

    edge_side = edges.map_batches(_edge_side, batch_format="pyarrow",
                                  batch_size=None)

    def _state_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["obj"] = None
        df["side"] = "r"
        return typed_table(df, node=pa.string(), obj=pa.string(),
                           t=pa.int64(), side=pa.string())

    def _messages(df: pd.DataFrame) -> pa.Table:
        r = df[df["side"] == "r"]
        shares = pd.DataFrame({
            "node": r["node"].to_numpy(),
            "share": r["t"].to_numpy() // alpha_div})
        m = df[df["side"] == "e"][["node", "obj"]].merge(shares, on="node")
        g = (m.groupby("obj", as_index=False).agg(s=("share", "sum"))
             .rename(columns={"obj": "node"}))
        g["k"] = 0
        return typed_table(g, node=pa.string(), s=pa.int64(), k=pa.int64())

    def _carry(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return typed_table(
            pd.DataFrame({"node": df["node"], "s": 0, "k": df["katz"]}),
            node=pa.string(), s=pa.int64(), k=pa.int64())

    def _update(df: pd.DataFrame) -> pa.Table:
        g = df.groupby("node", as_index=False).agg(s=("s", "sum"),
                                                   k=("k", "sum"))
        g["t"] = g["s"]
        g["katz"] = g["k"] + g["s"]
        return typed_table(g[["node", "t", "katz"]], **STATE)

    for k in range(1, iterations + 1):
        # pinned per round: the guard reads it, and both branches below
        # consume it
        state = state.materialize()
        # Python ints: the bound itself must not wrap
        max_t, max_katz = int(state.max("t")), int(state.max("katz"))
        if max_katz + (max_t // alpha_div) * max_indeg >= 2 ** 63:
            raise OverflowError(
                f"katz_centrality round {k}: max katz {max_katz} + (max t "
                f"{max_t} // alpha_div {alpha_div}) x max indegree "
                f"{max_indeg} could pass int64; lower scale")
        # only state rows carry side='r' mass; the message-less nodes
        # survive through the carried-state rows (s=0), so the spine
        # never needs re-joining
        rank_side = state.map_batches(_state_side, batch_format="pyarrow",
                                      batch_size=None)
        msgs = bucketed_group_apply(edge_side.union(rank_side), "node",
                                    _messages, nb)
        carried = state.map_batches(_carry, batch_format="pyarrow",
                                    batch_size=None)
        state = bucketed_group_apply(msgs.union(carried), "node",
                                     _update, nb)

    def _final(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return typed_table(
            pd.DataFrame({"node": df["node"], "katz_mass": df["katz"]}),
            node=pa.string(), katz_mass=pa.int64())

    return state.map_batches(_final, batch_format="pyarrow",
                             batch_size=None)


def pagerank_resumable(triples: ray.data.Dataset, out_dir: str,
                       iterations: int = 3, scale: int = 10 ** 12,
                       num_buckets: int = 32,
                       checkpoint_every: int = 1) -> ray.data.Dataset:
    """Manifest-checkpointed PageRank: the rank frontier is persisted
    through ``state.manifest.PartitionManifest`` (one atomically-renamed
    parquet directory per checkpointed iteration, manifest key =
    iteration index), so an N-iteration run on real scale resumes
    MID-ITERATION — a restart recomputes no round below the last
    checkpoint (north-rule resume for the iterative path).

    Resume correctness rests on two facts: (a) the integer fixed-point
    step is bit-exact for any partitioning, so recomputing rounds k+1..N
    from the persisted round-k frontier equals the unbroken run; (b) the
    frontier write is tmp-dir + ``os.rename``, so a kill mid-write leaves
    only the previous checkpoint visible.  The edge pin + spine rebuild on
    restart is one distinct exchange over the (already shard-checkpointed,
    see state/runner.py) triple table — O(|E|) once, independent of how
    many rounds were already done.  ``checkpoint_every`` trades object-
    store pressure against recompute-on-kill (1 = every round)."""
    import os
    import shutil

    from dug_ray.state.manifest import PartitionManifest

    eng = PageRankEngine(triples, scale, num_buckets)
    if eng.n_nodes == 0:
        return eng.empty_result()

    man = PartitionManifest(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    man.ensure_layout(scale=scale, n_nodes=eng.n_nodes,
                      checkpoint_every=checkpoint_every)
    done = {b for b in man.completed_buckets() if b <= iterations}
    start = max(done, default=0)

    def _ckpt_dir(i: int) -> str:
        return os.path.join(out_dir, f"rank-{i:05d}")

    if start > 0:
        ranks = ray.data.read_parquet(_ckpt_dir(start))
    else:
        ranks = eng.initial_ranks()

    for i in range(start + 1, iterations + 1):
        ranks = eng.step(ranks)
        if i % checkpoint_every == 0 or i == iterations:
            final = _ckpt_dir(i)
            tmp = final + ".tmp"
            shutil.rmtree(tmp, ignore_errors=True)
            shutil.rmtree(final, ignore_errors=True)
            ranks.write_parquet(tmp)
            os.rename(tmp, final)
            ranks = ray.data.read_parquet(final)
            man.mark_done(i, eng.n_nodes, final)

    return ranks.select_columns(["node", "rank_mass"])


def cooccurrence_pmi(linked: ray.data.Dataset,
                     num_buckets: int = 32) -> ray.data.Dataset:
    """Co-annotation edges weighted by pointwise mutual information:
    (subj, obj, n_elements, pmi) with pmi = ln(n_ab * N / (n_a * n_b))
    over element-annotation probabilities — the association score that
    separates genuinely linked concept pairs from pairs that co-occur
    merely because both are frequent (hubs score near or below 0).

    The float is ONE libm ln over an exactly-integer double ratio —
    bit-identical across engines (same discipline as the tf-idf score).
    Scale shape: the per-concept marginals are ONTOLOGY-BOUNDED (one row
    per concept, not per corpus element), so after a distributed
    partial+final count they are pulled once and broadcast via ray.put —
    a lookup inside map_batches, not a third shuffle; the corpus-sized
    structures (distinct mention pairs, the edge stream) never leave the
    cluster.
    """
    import ray

    dm = distinct_rows(
        linked.select_columns(["element_id", "canonical_curie"]),
        ["element_id", "canonical_curie"], num_buckets).materialize()

    def _marg_partial(batch: pa.Table) -> pa.Table:
        g = (batch.to_pandas().groupby("canonical_curie").size()
             .reset_index(name="deg"))
        return typed_table(g, canonical_curie=pa.string(), deg=pa.int64())

    marg = bucketed_group_apply(
        dm.map_batches(_marg_partial, batch_format="pyarrow",
                       batch_size=None),
        "canonical_curie",
        lambda df: typed_table(
            df.groupby("canonical_curie", as_index=False).agg(
                deg=("deg", "sum")),
            canonical_curie=pa.string(), deg=pa.int64()),
        num_buckets).to_pandas()
    deg_ref = ray.put(dict(zip(marg["canonical_curie"], marg["deg"])))
    n_total = distinct_rows(dm.select_columns(["element_id"]),
                            ["element_id"], num_buckets).count()

    # reuse the pinned distinct mentions — recomputing stage 1 inside
    # concept_cooccurrence would double the dominant corpus-sized exchange
    cooc = concept_cooccurrence(linked, num_buckets, distinct_mentions=dm)

    def _score(batch: pa.Table) -> pa.Table:
        import math
        deg = ray.get(deg_ref)
        df = batch.to_pandas()
        da = df["subj"].map(deg).astype("int64")
        db = df["obj"].map(deg).astype("int64")
        # multiply in float64, NOT int64: at the 100 TB design point the
        # marginal products can exceed int64, where numpy wraps silently
        # (DuckDB would raise — the engines would diverge instead of both
        # failing loudly). Bit-exactness bound: int operands <= 2^53 are
        # exactly representable, and then fl(a*b) == round(exact product)
        # == DuckDB's CAST(a*b AS DOUBLE) for any product — identical up
        # to int64 overflow, beyond which only this side stays correct.
        num = df["n_elements"].to_numpy().astype("float64") * float(n_total)
        den = (da.to_numpy().astype("float64")
               * db.to_numpy().astype("float64"))
        ratio = num / den
        # math.log (libm, same as DuckDB ln), not np.log (own SIMD impl,
        # can differ in the last ulp) — evaluated once per DISTINCT ratio,
        # then gathered (same discipline as text_index.tfidf_topk)
        uniq, inv = np.unique(ratio, return_inverse=True)
        logs = np.fromiter((math.log(x) for x in uniq), dtype=np.float64,
                           count=len(uniq))
        df["pmi"] = logs[inv]
        return typed_table(df, subj=pa.string(), obj=pa.string(),
                           n_elements=pa.int64(), pmi=pa.float64())

    return cooc.map_batches(_score, batch_format="pyarrow", batch_size=None)


def _local_adjacency(df: pd.DataFrame) -> dict[str, set]:
    """Driver-local set adjacency over a bounded distinct edge list
    (shared by the triangle / Jaccard small-graph fast paths)."""
    adj: dict[str, set] = {}
    for a, b in zip(df["subj"], df["obj"]):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def triangle_counts(edges: ray.data.Dataset,
                    num_buckets: int = 32,
                    max_driver_edges: int = 5_000_000) -> ray.data.Dataset:
    """(node, n_triangles) over an undirected simple graph whose edges
    arrive as lexicographically ordered rows (subj < obj, distinct) — the
    contract ``concept_cooccurrence`` emits.  Nodes in no triangle are
    omitted (matches the SQL oracle's GROUP BY over triangle corners).

    Three bucketed exchanges: (1) wedge enumeration at each apex (all
    ordered neighbor pairs b < c of a's above-edges, co-located by the
    subj bucket), (2) wedges matched against closing edges under a
    composite (b, c) bucket — triangle corners are counted per-bucket
    BEFORE (3) the final per-node sum, so the last exchange carries
    partials.  Scale note: wedge fan-out is quadratic in apex degree; the
    classic mitigation (degree-ordered orientation, forming wedges at the
    lowest-degree corner) drops in here by re-sorting each edge by the
    degree census from ``triple_degrees`` before stage 1 — not needed at
    the corpus' co-annotation densities, where the 8-token chunking bounds
    per-element concept counts and hence co-occurrence degrees.

    Size gate (``cooc_components`` discipline): the distinct edge list is
    reduced distributedly first; when it fits the driver the corners are
    counted locally via set-intersection per edge (each triangle is found
    once per edge, incrementing only the opposite apex — exact per-node
    counts, no 3x correction).  Both paths pinned equal by pytest.
    """
    edges = distinct_rows(edges.select_columns(["subj", "obj"]),
                          ["subj", "obj"], num_buckets)
    edges = edges.map_batches(
        lambda t: typed_table(t.to_pandas(), subj=pa.string(),
                              obj=pa.string()),
        batch_format="pyarrow", batch_size=None).materialize()

    if edges.count() <= max_driver_edges:
        pdf = edges.to_pandas()
        if not {"subj", "obj"} <= set(pdf.columns):  # edge-free graph
            pdf = pd.DataFrame({"subj": [], "obj": []})
        adj = _local_adjacency(pdf)
        counts: dict[str, int] = {}
        for b, c in zip(pdf["subj"], pdf["obj"]):
            for a in adj[b] & adj[c]:
                counts[a] = counts.get(a, 0) + 1
        out = pd.DataFrame(sorted(counts.items()),
                           columns=["node", "n_triangles"])
        return ray.data.from_arrow(typed_table(
            out, node=pa.string(), n_triangles=pa.int64()))

    def _wedges(df: pd.DataFrame) -> pa.Table:
        m = df.merge(df, on="subj")
        m = m[m["obj_x"] < m["obj_y"]]
        out = pd.DataFrame({"a": m["subj"], "b": m["obj_x"],
                            "c": m["obj_y"], "side": "w"})
        return typed_table(out, a=pa.string(), b=pa.string(),
                           c=pa.string(), side=pa.string())

    wedges = bucketed_group_apply(edges, "subj", _wedges, num_buckets)

    def _edge_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        out = pd.DataFrame({"a": pd.Series([None] * len(df), dtype=object),
                            "b": df["subj"], "c": df["obj"], "side": "e"})
        return typed_table(out, a=pa.string(), b=pa.string(),
                           c=pa.string(), side=pa.string())

    closing = edges.map_batches(_edge_side, batch_format="pyarrow",
                                batch_size=None)

    def _corners(df: pd.DataFrame) -> pa.Table:
        w = df[df["side"] == "w"][["a", "b", "c"]]
        e = df[df["side"] == "e"][["b", "c"]]
        tri = w.merge(e, on=["b", "c"])
        corners = pd.concat([tri["a"], tri["b"], tri["c"]],
                            ignore_index=True)
        g = corners.value_counts().rename_axis("node") \
                   .reset_index(name="t")
        return typed_table(g, node=pa.string(), t=pa.int64())

    partials = bucketed_group_apply(wedges.union(closing), ["b", "c"],
                                    _corners, num_buckets)

    def _final(df: pd.DataFrame) -> pa.Table:
        g = df.groupby("node", as_index=False).agg(n_triangles=("t", "sum"))
        return typed_table(g, node=pa.string(), n_triangles=pa.int64())

    return bucketed_group_apply(partials, "node", _final, num_buckets)


def cooc_components(linked: ray.data.Dataset,
                    num_buckets: int = 32,
                    max_driver_edges: int = 5_000_000,
                    distinct_mentions: ray.data.Dataset | None = None,
                    ) -> ray.data.Dataset:
    """(node, component) — weakly connected components of the concept
    co-annotation graph; component = lexicographically smallest CURIE
    reachable from the node (singleton concepts are their own component).

    Two paths, same result (mirrors ``cluster.connected_components``):

    - **reduced edge list fits the driver** (the common case — the node
      set is ONTOLOGY-BOUNDED, one node per canonical concept, and the
      co-occurrence edges are reduced distributedly first by
      concept_cooccurrence's partial-count exchanges): union-find with
      path compression, component label = min member.  Same bounded
      driver-pull discipline as the ontology maps and the PMI marginals.
    - **edge list too dense** (> ``max_driver_edges`` — a co-annotation
      graph can be quadratically denser than its node set): the shared
      distributed ``cluster.min_label_propagation`` loop.  The bounded
      NODE list is sorted, broadcast once and mapped to dense ints per
      batch (sorted order = lexicographic order, so the int min-label IS
      the CURIE min); driver traffic is one scalar per round.

    ``distinct_mentions``: a precomputed distinct (element_id,
    canonical_curie) reduction — both the edge build and the node list
    derive from it, so the corpus-sized distinct exchange runs ONCE here
    (and zero times when the caller already has it)."""
    import ray

    dm = distinct_mentions if distinct_mentions is not None else \
        distinct_rows(
            linked.select_columns(["element_id", "canonical_curie"]),
            ["element_id", "canonical_curie"], num_buckets).materialize()
    cooc = concept_cooccurrence(linked, num_buckets,
                                distinct_mentions=dm).materialize()
    # node list from the SAME reduction (dm is already distinct per
    # element, so this second distinct is ontology-cheap, not corpus-sized)
    node_df = distinct_rows(dm.select_columns(["canonical_curie"]),
                            ["canonical_curie"], num_buckets).to_pandas()
    nodes = sorted(node_df["canonical_curie"].dropna())
    if not nodes:
        return ray.data.from_arrow(typed_table(
            pd.DataFrame({"node": [], "component": []}),
            node=pa.string(), component=pa.string()))

    n_edges = cooc.count()
    if n_edges <= max_driver_edges:
        pdf = cooc.to_pandas()
        if not {"subj", "obj"} <= set(pdf.columns):
            # an edge-free co-annotation graph (no element with >=2
            # concepts) yields a fully-empty Dataset that loses its column
            # schema (the documented Ray pandas-block quirk) — every
            # concept is then its own singleton component
            pdf = pd.DataFrame({"subj": [], "obj": []})
        pairs = pdf[["subj", "obj"]]

        parent: dict[str, str] = {n: n for n in nodes}

        def find(x: str) -> str:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:  # path compression
                parent[x], x = root, parent[x]
            return root

        for a, b in zip(pairs["subj"], pairs["obj"]):
            ra, rb = find(a), find(b)
            if ra != rb:
                # keep the smaller CURIE as the root so the final label is
                # already the component min (no second pass)
                lo, hi = (ra, rb) if ra < rb else (rb, ra)
                parent[hi] = lo

        comp = pd.DataFrame({"node": nodes,
                             "component": [find(n) for n in nodes]})
        return ray.data.from_arrow(typed_table(comp, node=pa.string(),
                                               component=pa.string()))

    # dense-graph fallback: distributed min-label over dense int ids
    from dug_ray.stages.cluster import min_label_propagation

    nodes_arr = np.array(nodes, dtype=object)
    nodes_ref = ray.put(nodes_arr)

    def to_int(batch: pa.Table) -> pa.Table:
        nds = ray.get(nodes_ref)
        df = batch.to_pandas()
        a = np.searchsorted(nds, df["subj"].to_numpy(dtype=object))
        b = np.searchsorted(nds, df["obj"].to_numpy(dtype=object))
        return pa.table({
            "src": pa.array(np.concatenate([a, b]), pa.int64()),
            "dst": pa.array(np.concatenate([b, a]), pa.int64())})

    edges_int = cooc.map_batches(to_int, batch_format="pyarrow",
                                 batch_size=None).materialize()
    labels = ray.data.range(len(nodes)).map_batches(
        lambda b: pa.table({"doc": pa.compute.cast(b["id"], pa.int64()),
                            "label": pa.compute.cast(b["id"], pa.int64())}),
        batch_format="pyarrow", batch_size=None).materialize()
    labels = min_label_propagation(edges_int, labels,
                                   num_buckets=min(num_buckets, 16))

    def back(batch: pa.Table) -> pa.Table:
        nds = ray.get(nodes_ref)
        doc = batch["doc"].to_numpy(zero_copy_only=False)
        lab = batch["label"].to_numpy(zero_copy_only=False)
        return pa.table({"node": pa.array(nds[doc], pa.string()),
                         "component": pa.array(nds[lab], pa.string())})

    return labels.map_batches(back, batch_format="pyarrow", batch_size=None)


def triple_degrees(triples: ray.data.Dataset,
                   num_buckets: int = 32) -> ray.data.Dataset:
    """(subj, n_triples, n_preds, n_objs) degree profile of the KG.

    Per-batch combiner collapses duplicate (subj, pred, obj) rows to a
    multiplicity count, so the subject shuffle moves one row per distinct
    triple; the bucketed finalizer then computes the exact row count
    (sum of multiplicities) and distinct pred/obj counts per subject.
    """

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["subj", "pred", "obj"]).to_pandas()
        g = df.groupby(["subj", "pred", "obj"]).size().reset_index(name="n")
        return typed_table(g, subj=pa.string(), pred=pa.string(),
                           obj=pa.string(), n=pa.int64())

    partials = triples.map_batches(partial, batch_format="pyarrow",
                                   batch_size=None)

    def finalize(df: pd.DataFrame) -> pa.Table:
        g = df.groupby("subj").agg(
            n_triples=("n", "sum"),
            n_preds=("pred", "nunique"),
            n_objs=("obj", "nunique")).reset_index()
        return typed_table(g, subj=pa.string(), n_triples=pa.int64(),
                           n_preds=pa.int64(), n_objs=pa.int64())

    return bucketed_group_apply(partials, "subj", finalize, num_buckets)


def _local_frontier_sweep(edges_df: pd.DataFrame, seed_prefix: str,
                          max_level: int, with_labels: bool):
    """Driver-local BFS / nearest-seed sweep over a bounded DISTINCT edge
    list (the small-graph fast path shared by ``bfs_levels`` and
    ``label_spread`` — same semantics as their distributed loops: min-hop
    levels; for labels, min candidate label at the FIRST reachable level).

    Returns (nodes, lvls[, labels]) parallel lists."""
    from collections import defaultdict

    adj: dict[str, list[str]] = defaultdict(list)
    for a, b in zip(edges_df["subj"], edges_df["obj"]):
        adj[a].append(b)
        adj[b].append(a)
    seeds = sorted(n for n in adj if n.startswith(seed_prefix))
    label: dict[str, str] = {s: s for s in seeds}
    level: dict[str, int] = {s: 0 for s in seeds}
    frontier: list[str] = seeds
    for lvl in range(1, max_level + 1):
        cand: dict[str, str] = {}
        for u in frontier:
            lu = label[u]
            for v in adj[u]:
                if v in level:
                    continue
                cur = cand.get(v)
                if cur is None or lu < cur:
                    cand[v] = lu
        if not cand:
            break
        for v, lb in cand.items():
            level[v] = lvl
            label[v] = lb
        frontier = list(cand)
    nodes = list(level)
    lvls = [level[n] for n in nodes]
    if with_labels:
        return nodes, lvls, [label[n] for n in nodes]
    return nodes, lvls


def bfs_levels(triples: ray.data.Dataset,
               seed_prefix: str = "MONDO:",
               max_level: int = 3,
               num_buckets: int = 32,
               max_driver_edges: int = 5_000_000) -> ray.data.Dataset:
    """Multi-source BFS over the UNDIRECTED KG graph: ``(node, lvl)`` =
    minimum hop distance from any node whose CURIE starts with
    ``seed_prefix``, up to ``max_level`` hops (unreached nodes omitted).

    The reference's KG is served as point lookups (reference:
    src/dug/core/async_search.py query-by-id); a curation pass over a
    10^12-triple table needs reachability sweeps ("everything within k
    hops of a disease seed set") as a first-class distributed operator.

    Frontier expansion is the textbook distributed BFS, TWO bucketed
    exchanges per level: (1) a partitioned hash join (frontier |><| edges
    on src — both sides large: level-1 frontiers already include
    corpus-sized element ids, so no broadcast); (2) distinct + visited
    anti-join FUSED into one set-difference exchange — neighbor
    candidates (per-batch deduped by a combiner first) and the visited
    node set are tagged, unioned and bucketed on the node id, so one
    bucket task sees every copy of a node from both sides and emits it
    once iff it is new (SQL NOT EXISTS semantics).  The visited side is
    the union of the previous (materialized) frontiers — Ray unions
    lazily without copying.  Levels are deterministic by construction
    (min-hop is order-independent), so the DuckDB oracle pins every
    (node, lvl) row exactly.

    Block-count discipline: every materialized frontier is coalesced to
    ``coalesce_blocks`` blocks before re-entering the loop.  Each
    exchange emits >= num_buckets blocks, so without coalescing the
    level-k union feeds k x num_buckets tiny blocks into the groupby
    sort-shuffle, whose task count grows with input blocks — measured
    11x slower by level 3 on a small graph.  At cluster scale raise
    ``coalesce_blocks`` with the frontier size (it only needs to be
    large enough that one frontier block fits a worker's heap).

    Size gate (same discipline as ``cooc_components``): the DISTINCT
    edge list is reduced distributedly first; when it fits the driver
    (<= ``max_driver_edges``) the sweep runs locally — a 3-level BFS is
    then dict lookups, not 3 x 2 cluster exchanges.  Larger graphs take
    the distributed frontier loop; both paths are pinned equal by
    ``tests/test_round5_session4.py``.
    """
    from dug_ray.shuffle import hash_join

    coalesce_blocks = max(2, num_buckets // 8)
    # the frontier-side exchanges carry node ids only (ontology + element
    # cardinality, not corpus cardinality) — fewer reduce tasks than the
    # edge-sized exchanges
    frontier_buckets = max(coalesce_blocks, num_buckets // 4)
    base = distinct_rows(triples.select_columns(["subj", "obj"]),
                         ["subj", "obj"], num_buckets).materialize()

    if base.count() <= max_driver_edges:
        pdf = base.to_pandas()
        if not {"subj", "obj"} <= set(pdf.columns):  # edge-free KG
            pdf = pd.DataFrame({"subj": [], "obj": []})
        nodes, lvls = _local_frontier_sweep(pdf, seed_prefix, max_level,
                                            with_labels=False)
        return ray.data.from_arrow(typed_table(
            pd.DataFrame({"node": nodes, "lvl": lvls}),
            node=pa.string(), lvl=pa.int64()))

    def _sym(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        out = pd.DataFrame({
            "src": pd.concat([df["subj"], df["obj"]], ignore_index=True),
            "dst": pd.concat([df["obj"], df["subj"]], ignore_index=True)})
        return typed_table(out, src=pa.string(), dst=pa.string())

    # materialize once: every level re-probes this table, and the lazy
    # chain would re-run the whole distinct + _sym per level; base itself
    # is never re-read, so only edges needs to persist
    edges = base.map_batches(_sym, batch_format="pyarrow",
                             batch_size=None).materialize()

    def _seeds(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        s = df.loc[df["src"].str.startswith(seed_prefix), ["src"]]
        s = s.drop_duplicates().rename(columns={"src": "node"})
        return typed_table(s, node=pa.string())

    # symmetric edges => every node appears as src; seed set needs no
    # second scan over dst
    seeds = distinct_rows(
        edges.map_batches(_seeds, batch_format="pyarrow", batch_size=None),
        ["node"], frontier_buckets)

    def _tag(side: str, col: str):
        def _t(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            # combiner: dedup candidate nodes per batch before the exchange
            out = pd.DataFrame({"node": df[col].drop_duplicates()})
            out["side"] = side
            return typed_table(out, node=pa.string(), side=pa.string())
        return _t

    def _minus(df: pd.DataFrame) -> pa.Table:
        seen = df.loc[df["side"] == "s", "node"]
        cand = df.loc[df["side"] == "c", "node"].drop_duplicates()
        out = pd.DataFrame({"node": cand[~cand.isin(set(seen))]})
        return typed_table(out, node=pa.string())

    frontier = seeds.repartition(coalesce_blocks).materialize()
    frontiers = [frontier]
    for level in range(1, max_level + 1):
        hops = hash_join(
            frontier.map_batches(
                lambda t: t.rename_columns(["fnode"]),
                batch_format="pyarrow", batch_size=None),
            edges, "fnode", "src", num_buckets)
        cand = hops.map_batches(_tag("c", "dst"), batch_format="pyarrow",
                                batch_size=None)
        seen = [f.map_batches(_tag("s", "node"), batch_format="pyarrow",
                              batch_size=None) for f in frontiers]
        new = bucketed_group_apply(cand.union(*seen), "node", _minus,
                                   frontier_buckets)
        frontier = new.repartition(coalesce_blocks).materialize()
        if frontier.count() == 0:
            break
        frontiers.append(frontier)

    def _lvl(level: int):
        def _t(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "lvl", pa.nulls(len(batch), pa.int64()).fill_null(level))
        return _t

    leveled = [f.map_batches(_lvl(i), batch_format="pyarrow",
                             batch_size=None)
               for i, f in enumerate(frontiers)]
    return leveled[0] if len(leveled) == 1 else \
        ray.data.Dataset.union(*leveled)


def neighbor_jaccard(edges: ray.data.Dataset,
                     num_buckets: int = 32,
                     max_driver_edges: int = 5_000_000) -> ray.data.Dataset:
    """Per-EDGE neighborhood Jaccard similarity over the undirected
    co-annotation graph: for each edge (subj, obj) — rows ordered
    subj < obj, distinct, the ``concept_cooccurrence`` contract —
    ``common`` = |N(subj) ∩ N(obj)| and ``jaccard_milli`` =
    floor(1000 * common / (deg(subj) + deg(obj) - common)).

    This is the classic structural-similarity edge weight for KG
    curation (a co-annotation edge whose endpoints share most of their
    neighborhoods is redundant with the cluster around it; one with
    jaccard ~ 0 is a bridge).  Integer-milli output keeps the operator
    bit-exact across engines and partitionings — the same
    determinism-by-construction discipline as dup_chunks/pagerank.

    Plan: common-neighbor counts reuse the triangle machinery (wedge
    enumeration at each apex, matched against closing edges under a
    composite (b, c) bucket — but keeping the per-EDGE match count
    instead of exploding corners), with a LEFT match so zero-common
    edges survive.  Degrees are ontology-bounded (nodes are canonical
    CURIEs), so they broadcast once via ray.put and join map-side —
    the same marginal-broadcast justification as ``cooccurrence_pmi``.
    """
    edges = distinct_rows(edges.select_columns(["subj", "obj"]),
                          ["subj", "obj"], num_buckets)
    edges = edges.map_batches(
        lambda t: typed_table(t.to_pandas(), subj=pa.string(),
                              obj=pa.string()),
        batch_format="pyarrow", batch_size=None).materialize()

    # size gate (cooc_components discipline): bounded edge lists score
    # locally via per-edge set intersection; pytest pins both paths equal
    if edges.count() <= max_driver_edges:
        pdf = edges.to_pandas()
        if not {"subj", "obj"} <= set(pdf.columns):  # edge-free graph
            pdf = pd.DataFrame({"subj": [], "obj": []})
        al = _local_adjacency(pdf)
        rows = []
        for b, c in zip(pdf["subj"], pdf["obj"]):
            common = len(al[b] & al[c])
            denom = len(al[b]) + len(al[c]) - common
            rows.append((b, c, common, (1000 * common) // denom))
        out = pd.DataFrame(rows, columns=["subj", "obj", "common",
                                          "jaccard_milli"])
        return ray.data.from_arrow(typed_table(
            out, subj=pa.string(), obj=pa.string(), common=pa.int64(),
            jaccard_milli=pa.int64()))

    # degrees: per-batch partial counts over both endpoints -> tiny
    # bucketed merge -> driver dict (ontology-bounded) -> broadcast
    def _deg_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        nodes = pd.concat([df["subj"], df["obj"]], ignore_index=True)
        g = nodes.value_counts().rename_axis("node").reset_index(name="d")
        return typed_table(g, node=pa.string(), d=pa.int64())

    def _deg_final(df: pd.DataFrame) -> pa.Table:
        g = df.groupby("node", as_index=False).agg(deg=("d", "sum"))
        return typed_table(g, node=pa.string(), deg=pa.int64())

    deg = bucketed_group_apply(
        edges.map_batches(_deg_partial, batch_format="pyarrow",
                          batch_size=None),
        "node", _deg_final, num_buckets).to_pandas()
    deg_ref = ray.put(dict(zip(deg["node"], deg["deg"].astype(np.int64))))

    # wedge enumeration must run over the SYMMETRIC adjacency: a common
    # neighbor of (b, c) can sort anywhere relative to b and c, so the
    # triangle-count orientation (apex below both neighbors) undercounts —
    # each apex pairs ALL its neighbors (ordered b < c), one wedge per
    # (apex, b, c), so the per-(b, c) wedge count IS |N(b) ∩ N(c)|
    def _adj(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        out = pd.DataFrame({
            "apex": pd.concat([df["subj"], df["obj"]], ignore_index=True),
            "nbr": pd.concat([df["obj"], df["subj"]], ignore_index=True)})
        return typed_table(out, apex=pa.string(), nbr=pa.string())

    adj = edges.map_batches(_adj, batch_format="pyarrow", batch_size=None)

    def _wedges(df: pd.DataFrame) -> pa.Table:
        m = df.merge(df, on="apex")
        m = m[m["nbr_x"] < m["nbr_y"]]
        out = pd.DataFrame({"b": m["nbr_x"], "c": m["nbr_y"], "side": "w"})
        return typed_table(out, b=pa.string(), c=pa.string(),
                           side=pa.string())

    wedges = bucketed_group_apply(adj, "apex", _wedges, num_buckets)

    def _edge_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        out = pd.DataFrame({"b": df["subj"], "c": df["obj"], "side": "e"})
        return typed_table(out, b=pa.string(), c=pa.string(),
                           side=pa.string())

    closing = edges.map_batches(_edge_side, batch_format="pyarrow",
                                batch_size=None)

    def _common(df: pd.DataFrame) -> pa.Table:
        w = df[df["side"] == "w"].groupby(["b", "c"]).size() \
              .reset_index(name="common")
        e = df[df["side"] == "e"][["b", "c"]]
        out = e.merge(w, on=["b", "c"], how="left")
        out["common"] = out["common"].fillna(0).astype(np.int64)
        return typed_table(out, b=pa.string(), c=pa.string(),
                           common=pa.int64())

    per_edge = bucketed_group_apply(wedges.union(closing), ["b", "c"],
                                    _common, num_buckets)

    def _score(batch: pa.Table) -> pa.Table:
        d = ray.get(deg_ref)
        df = batch.to_pandas()
        db = df["b"].map(d).astype(np.int64)
        dc = df["c"].map(d).astype(np.int64)
        common = df["common"].to_numpy()
        # an edge's endpoints are in each other's neighborhoods, so the
        # union is never empty: denom >= 2
        denom = (db + dc - common).to_numpy()
        out = pd.DataFrame({"subj": df["b"], "obj": df["c"],
                            "common": common,
                            "jaccard_milli": (1000 * common) // denom})
        return typed_table(out, subj=pa.string(), obj=pa.string(),
                           common=pa.int64(), jaccard_milli=pa.int64())

    return per_edge.map_batches(_score, batch_format="pyarrow",
                                batch_size=None)


def k_core(edges: ray.data.Dataset,
           k: int = 2,
           max_rounds: int = 12,
           num_buckets: int = 32) -> ray.data.Dataset:
    """k-core decomposition of the undirected co-annotation graph:
    iteratively peel nodes of degree < ``k`` until fixpoint (or
    ``max_rounds``), returning the surviving nodes with their in-core
    degree.  The k-core is the standard density filter for KG curation —
    concepts that survive the 2-core participate in at least one cycle
    of co-annotation evidence; pendant/chain concepts peel away.

    Input contract: distinct undirected edges with subj < obj (the
    ``concept_cooccurrence`` output shape).

    Exactness across engines: BOTH the oracle and this operator run the
    same capped iteration — remove-deg<k for ``max_rounds`` rounds.  If
    the peel reaches a fixpoint earlier this loop stops (the oracle's
    remaining rounds are no-ops, so results stay identical); if not,
    both engines stop after the same round count, again identical.

    Scale shape: per round, degrees are computed by a per-batch partial
    count + one bounded merge (nodes are canonical CURIEs — ontology
    cardinality, not corpus cardinality), the surviving node set is
    broadcast via ``ray.put`` and the edge table is filtered map-side —
    one exchange per round over a monotonically shrinking edge set, no
    edge-sized shuffle after round 0.
    """
    edges = distinct_rows(edges.select_columns(["subj", "obj"]),
                          ["subj", "obj"], num_buckets)
    cur = edges.map_batches(
        lambda t: typed_table(t.to_pandas(), subj=pa.string(),
                              obj=pa.string()),
        batch_format="pyarrow", batch_size=None).materialize()

    def _deg_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        nodes = pd.concat([df["subj"], df["obj"]], ignore_index=True)
        g = nodes.value_counts().rename_axis("node").reset_index(name="d")
        return typed_table(g, node=pa.string(), d=pa.int64())

    def _deg_final(df: pd.DataFrame) -> pa.Table:
        g = df.groupby("node", as_index=False).agg(deg=("d", "sum"))
        return typed_table(g, node=pa.string(), deg=pa.int64())

    def _degrees(es: ray.data.Dataset) -> pd.DataFrame:
        return bucketed_group_apply(
            es.map_batches(_deg_partial, batch_format="pyarrow",
                           batch_size=None),
            "node", _deg_final, num_buckets).to_pandas()

    deg = _degrees(cur)
    for _ in range(max_rounds):
        survivors = set(deg.loc[deg["deg"] >= k, "node"])
        if len(survivors) == len(deg):        # fixpoint: nothing to peel
            break
        if not survivors:
            deg = deg.iloc[0:0]
            break
        surv_ref = ray.put(survivors)

        def _filter(batch: pa.Table) -> pa.Table:
            s = ray.get(surv_ref)
            df = batch.to_pandas()
            df = df[df["subj"].isin(s) & df["obj"].isin(s)]
            return typed_table(df, subj=pa.string(), obj=pa.string())

        cur = cur.map_batches(_filter, batch_format="pyarrow",
                              batch_size=None).materialize()
        deg = _degrees(cur)

    out = deg.rename(columns={"deg": "core_deg"})
    return ray.data.from_arrow(
        typed_table(out, node=pa.string(), core_deg=pa.int64()))


def label_spread(triples: ray.data.Dataset,
                 seed_prefix: str = "MONDO:",
                 max_level: int = 3,
                 num_buckets: int = 32,
                 max_driver_edges: int = 5_000_000) -> ray.data.Dataset:
    """Seeded label propagation (graph Voronoi partition): every node
    within ``max_level`` hops of a seed (CURIE prefix match) is assigned
    the label of its nearest seed — ties broken by hop count first (a
    node is labeled at its FIRST reachable level and never relabeled),
    then by the lexicographically smallest candidate label within that
    level.  Output: (node, label, lvl).  Deterministic by construction,
    so the DuckDB oracle (iterated min()-CTEs) pins every row.

    This is the KG-curation "assign every concept/element to its nearest
    disease cluster" sweep — same frontier machinery as ``bfs_levels``
    (one partitioned join + one fused set-difference exchange per level,
    coalesced frontiers), with the label column riding along and a
    per-node min() folded into the set-difference bucket.

    Size gate: same ``max_driver_edges`` bounded-driver-pull fast path
    as ``bfs_levels`` (shared ``_local_frontier_sweep``); distributed
    loop above the gate, both paths pinned equal by pytest.
    """
    from dug_ray.shuffle import hash_join

    coalesce_blocks = max(2, num_buckets // 8)
    frontier_buckets = max(coalesce_blocks, num_buckets // 4)
    base = distinct_rows(triples.select_columns(["subj", "obj"]),
                         ["subj", "obj"], num_buckets).materialize()

    if base.count() <= max_driver_edges:
        pdf = base.to_pandas()
        if not {"subj", "obj"} <= set(pdf.columns):  # edge-free KG
            pdf = pd.DataFrame({"subj": [], "obj": []})
        nodes, lvls, labels = _local_frontier_sweep(
            pdf, seed_prefix, max_level, with_labels=True)
        return ray.data.from_arrow(typed_table(
            pd.DataFrame({"node": nodes, "label": labels, "lvl": lvls}),
            node=pa.string(), label=pa.string(), lvl=pa.int64()))

    def _sym(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        out = pd.DataFrame({
            "src": pd.concat([df["subj"], df["obj"]], ignore_index=True),
            "dst": pd.concat([df["obj"], df["subj"]], ignore_index=True)})
        return typed_table(out, src=pa.string(), dst=pa.string())

    edges = base.map_batches(_sym, batch_format="pyarrow",
                             batch_size=None).materialize()

    def _seeds(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        s = df.loc[df["src"].str.startswith(seed_prefix), ["src"]]
        s = s.drop_duplicates().rename(columns={"src": "node"})
        s["label"] = s["node"]
        return typed_table(s, node=pa.string(), label=pa.string())

    seeds = distinct_rows(
        edges.map_batches(_seeds, batch_format="pyarrow", batch_size=None),
        ["node", "label"], frontier_buckets)

    def _tag(side: str):
        def _t(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            if side == "c":
                # combiner: keep the per-batch min label per candidate
                out = df.groupby("dst", as_index=False)["label"].min() \
                        .rename(columns={"dst": "node"})
            else:
                out = df[["node"]].drop_duplicates().copy()
                out["label"] = ""          # visited side: label unused
            out["side"] = side
            return typed_table(out, node=pa.string(), label=pa.string(),
                               side=pa.string())
        return _t

    def _minus_min(df: pd.DataFrame) -> pa.Table:
        seen = set(df.loc[df["side"] == "s", "node"])
        cand = df[df["side"] == "c"]
        cand = cand[~cand["node"].isin(seen)]
        out = cand.groupby("node", as_index=False)["label"].min()
        return typed_table(out, node=pa.string(), label=pa.string())

    frontier = seeds.repartition(coalesce_blocks).materialize()
    frontiers = [frontier]
    for _level in range(1, max_level + 1):
        hops = hash_join(
            frontier.map_batches(
                lambda t: t.rename_columns(["fnode", "label"]),
                batch_format="pyarrow", batch_size=None),
            edges, "fnode", "src", num_buckets)
        cand = hops.map_batches(_tag("c"), batch_format="pyarrow",
                                batch_size=None)
        seen = [f.map_batches(_tag("s"), batch_format="pyarrow",
                              batch_size=None) for f in frontiers]
        new = bucketed_group_apply(cand.union(*seen), "node", _minus_min,
                                   frontier_buckets)
        frontier = new.repartition(coalesce_blocks).materialize()
        if frontier.count() == 0:
            break
        frontiers.append(frontier)

    def _lvl(level: int):
        def _t(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "lvl", pa.nulls(len(batch), pa.int64()).fill_null(level))
        return _t

    leveled = [f.map_batches(_lvl(i), batch_format="pyarrow",
                             batch_size=None)
               for i, f in enumerate(frontiers)]
    return leveled[0] if len(leveled) == 1 else \
        ray.data.Dataset.union(*leveled)


def sssp_weighted(linked: ray.data.Dataset, seed_prefix: str = "MONDO:",
                  rounds: int = 3, num_buckets: int = 16,
                  distinct_mentions: ray.data.Dataset | None = None,
                  max_driver_edges: int = 5_000_000) -> ray.data.Dataset:
    """Weighted single-source (multi-seed) shortest paths over the
    co-annotation graph: ``(node, dist)`` = minimum total weight from any
    node with ``seed_prefix``, relaxed for ``rounds`` Bellman-Ford rounds
    (paths of <= rounds edges — identical to the round-bounded oracle
    whether or not a fixpoint is reached, the k_core capped-round
    discipline).

    Edge weight = ``1 + 1000 // n_elements`` — rarer co-annotations cost
    more, so the metric is an integer inverse-frequency distance.

    Scale shape: one relaxation round = TWO bucketed exchanges — a
    partitioned hash join (dist frontier |><| edges on the source node;
    no broadcast, the dist table grows toward node count) and a min-merge
    of (old dists ∪ relaxed candidates) under a node-keyed bucket, with
    per-batch min combiners ahead of it.  The edge table is pinned once
    by ``materialize()`` and re-read each round from the object store.
    Min-dist is order-independent, so the result is deterministic and the
    iterated-CTE oracle pins every row."""
    import pyarrow.compute as pc

    from dug_ray.shuffle import hash_join

    cooc = concept_cooccurrence(linked, num_buckets, distinct_mentions)

    def to_edges(batch: pa.Table) -> pa.Table:
        n = batch["n_elements"].to_numpy(zero_copy_only=False)
        w = 1 + 1000 // n
        subj = batch["subj"].to_pandas().to_numpy(dtype=object)
        obj = batch["obj"].to_pandas().to_numpy(dtype=object)
        return pa.table({
            "src": pa.array(np.concatenate([subj, obj]), pa.string()),
            "dst": pa.array(np.concatenate([obj, subj]), pa.string()),
            "w": pa.array(np.concatenate([w, w]), pa.int64())})

    edges = cooc.map_batches(to_edges, batch_format="pyarrow",
                             batch_size=None).materialize()

    # small-graph fast path (the bfs_levels/label_spread/cooc_components
    # gate): a bounded co-annotation graph relaxes in microseconds on the
    # driver; above the gate the distributed loop below takes over
    if edges.count() <= max_driver_edges:
        pdf = edges.to_pandas()
        dist_map: dict[str, int] = {
            n: 0 for n in pdf["src"] if n.startswith(seed_prefix)}
        triples = list(zip(pdf["src"], pdf["dst"],
                           (int(x) for x in pdf["w"])))
        for _ in range(rounds):
            cand: dict[str, int] = {}
            for s, d, w in triples:
                ds_ = dist_map.get(s)
                if ds_ is None:
                    continue
                nd = ds_ + w
                if nd < dist_map.get(d, nd + 1) and nd < cand.get(d, nd + 1):
                    cand[d] = nd
            if not cand:
                break
            dist_map.update(cand)
        out = pd.DataFrame(
            {"node": list(dist_map), "dist": list(dist_map.values())})
        return ray.data.from_arrow(typed_table(
            out, node=pa.string(), dist=pa.int64()))

    def seed_batch(batch: pa.Table) -> pa.Table:
        keep = pc.starts_with(batch["src"], seed_prefix)
        t = batch.filter(keep)
        return pa.table({"node": t["src"],
                         "dist": pa.nulls(len(t), pa.int64())
                         .fill_null(0)})

    dist = distinct_rows(
        edges.map_batches(seed_batch, batch_format="pyarrow",
                          batch_size=None), ["node", "dist"],
        num_buckets).materialize()

    def min_merge(df: pd.DataFrame) -> pa.Table:
        g = df.groupby("node", as_index=False)["dist"].min()
        return typed_table(g, node=pa.string(), dist=pa.int64())

    for _ in range(rounds):
        relax = hash_join(dist, edges, "node", "src", num_buckets)

        def cand(batch: pa.Table) -> pa.Table:
            return pa.table({
                "node": batch["dst"],
                "dist": pc.add(batch["dist"], batch["w"])})

        cands = relax.map_batches(cand, batch_format="pyarrow",
                                  batch_size=None)
        dist = bucketed_group_apply(dist.union(cands), "node", min_merge,
                                    num_buckets).materialize()

    return dist


def hits_scores(triples: ray.data.Dataset, rounds: int = 2,
                scale: int = 1_000_000, num_buckets: int = 16,
                max_driver_edges: int = 5_000_000) -> ray.data.Dataset:
    """Integer fixed-point HITS over the directed triple graph:
    ``(node, hub_mass, auth_mass)`` after ``rounds`` of the classic
    sequential update (h <- sum of successors' a, then a <- sum of
    predecessors' NEW h), each side rescaled by the truncated divisor
    ``max(score) // scale + 1`` so values stay near ``scale`` and int64
    NEVER wraps regardless of degree skew — every operation is integer
    (nonnegative, so floor == trunc), making the result bit-identical to
    the iterated-CTE oracle for any partitioning (the PageRankEngine
    exactness discipline).

    Scale shape: the distinct edge list is pinned once; one half-step =
    one partitioned join (scores co-located with edges on the scored
    endpoint) + one endpoint-keyed sum exchange rebuilt on the static
    node spine (zero for nodes with no such edges); the rescale divisor
    is a scalar tree-reduce.  Nothing node- or edge-shaped touches the
    driver."""
    import pyarrow.compute as pc

    from dug_ray.shuffle import hash_join

    edges = distinct_rows(triples.select_columns(["subj", "obj"]),
                          ["subj", "obj"], num_buckets)
    edges = edges.map_batches(
        lambda b: typed_table(b.to_pandas(), subj=pa.string(),
                              obj=pa.string()),
        batch_format="pyarrow", batch_size=None).materialize()
    n_edges = edges.count()

    # small-graph fast path (the bfs/sssp/cooc gate): the SAME integer
    # recurrence as the distributed loop, run as numpy scatter-adds on
    # the driver — bit-identical output, proven by the gate-forced test
    if n_edges <= max_driver_edges:
        pdf = edges.to_pandas()
        nodes = pd.Index(pd.concat([pdf["subj"], pdf["obj"]])
                         .drop_duplicates().sort_values())
        si = nodes.get_indexer(pdf["subj"]).astype("int64")
        oi = nodes.get_indexer(pdf["obj"]).astype("int64")
        h = np.full(len(nodes), scale, dtype="int64")
        a = h.copy()

        def _resc(v: np.ndarray) -> np.ndarray:
            return v // (int(v.max()) // scale + 1)

        for _ in range(rounds):
            nh = np.zeros(len(nodes), dtype="int64")
            np.add.at(nh, si, a[oi])
            h = _resc(nh)
            na = np.zeros(len(nodes), dtype="int64")
            np.add.at(na, oi, h[si])
            a = _resc(na)
        out = pd.DataFrame({"node": nodes.to_numpy(), "hub_mass": h,
                            "auth_mass": a})
        return ray.data.from_arrow(typed_table(
            out, node=pa.string(), hub_mass=pa.int64(),
            auth_mass=pa.int64()))

    # adaptive exchange width + block coalescing (the PageRankEngine
    # economics): a bounded graph must not pay num_buckets task
    # latencies per half-step, and the spine/partial unions must not
    # feed the sort exchange a pile of tiny blocks
    num_buckets = max(2, min(num_buckets, n_edges // 50_000 + 2))
    edges = edges.repartition(num_buckets).materialize()

    def _node_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        nodes = pd.concat([df["subj"], df["obj"]]).drop_duplicates()
        return typed_table(pd.DataFrame({"node": nodes}),
                           node=pa.string())

    spine = distinct_rows(
        edges.map_batches(_node_partial, batch_format="pyarrow",
                          batch_size=None), ["node"],
        num_buckets).materialize()

    def init_scores(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node": batch["node"],
            "s": pa.nulls(len(batch), pa.int64()).fill_null(scale)})

    def _zero(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node": batch["node"],
            "part": pa.nulls(len(batch), pa.int64()).fill_null(0)})

    zero_spine = spine.map_batches(_zero, batch_format="pyarrow",
                                   batch_size=None).materialize()

    def half_step(scores: ray.data.Dataset, score_side: str,
                  out_side: str) -> ray.data.Dataset:
        """New score of each ``out_side`` node = sum over edges of the
        current score at ``score_side`` — rebuilt on the full spine."""
        j = hash_join(scores, edges, "node", score_side, num_buckets,
                      coalesce_blocks=num_buckets)

        def partial(df: pd.DataFrame) -> pa.Table:
            g = (df.groupby(out_side, as_index=False)["s"].sum()
                 .rename(columns={out_side: "node", "s": "part"}))
            return typed_table(g, node=pa.string(), part=pa.int64())

        parts = j.map_batches(partial, batch_format="pandas",
                              batch_size=None)

        def fold(df: pd.DataFrame) -> pa.Table:
            g = df.groupby("node", as_index=False)["part"].sum() \
                .rename(columns={"part": "s"})
            return typed_table(g, node=pa.string(), s=pa.int64())

        return bucketed_group_apply(
            parts.union(zero_spine).repartition(num_buckets), "node",
            fold, num_buckets)

    def rescale(scores: ray.data.Dataset) -> ray.data.Dataset:
        scores = scores.materialize()
        d = int(scores.max("s")) // scale + 1

        def f(batch: pa.Table) -> pa.Table:
            s = batch["s"].to_numpy(zero_copy_only=False)
            return pa.table({"node": batch["node"],
                             "s": pa.array(s // d, pa.int64())})

        return scores.map_batches(f, batch_format="pyarrow",
                                  batch_size=None).materialize()

    h = spine.map_batches(init_scores, batch_format="pyarrow",
                          batch_size=None).materialize()
    a = h
    for _ in range(rounds):
        h = rescale(half_step(a, "obj", "subj"))    # h(u) = sum a(succ)
        a = rescale(half_step(h, "subj", "obj"))    # a(v) = sum h(pred)

    hj = hash_join(
        h.map_batches(lambda b: pa.table({"hnode": b["node"],
                                          "hub_mass": b["s"]}),
                      batch_format="pyarrow", batch_size=None),
        a.map_batches(lambda b: pa.table({"anode": b["node"],
                                          "auth_mass": b["s"]}),
                      batch_format="pyarrow", batch_size=None),
        "hnode", "anode", num_buckets, coalesce_blocks=num_buckets)

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["hnode"],
                         "hub_mass": pc.cast(batch["hub_mass"],
                                             pa.int64()),
                         "auth_mass": pc.cast(batch["auth_mass"],
                                              pa.int64())})

    return hj.map_batches(fin, batch_format="pyarrow", batch_size=None)


def clustering_coefficient(edges: ray.data.Dataset,
                           num_buckets: int = 32,
                           max_driver_edges: int = 5_000_000
                           ) -> ray.data.Dataset:
    """Per-node LOCAL clustering coefficient (integer milli) over the
    undirected co-annotation graph: ``cc_milli = floor(1000 * 2T(v) /
    (deg(v) * (deg(v) - 1)))`` for every node with deg >= 2 (the
    coefficient is undefined below that; SQL `WHERE deg >= 2`).

    The density census downstream curation reads NEXT TO the triangle
    counts: a hub with thousands of triangles can still have cc ~ 0
    (hub-and-spoke), while a small clique scores 1000 — the two together
    separate topical clusters from promiscuous annotation hubs.

    Plan: triangle membership reuses ``triangle_counts`` verbatim (its
    own size gate + bucketed wedge path apply); degrees fold from
    per-batch endpoint partials in one bounded exchange.  Both tables
    are node-bounded (canonical CURIEs ~ ontology size, NOT corpus
    size), so the triangle side broadcasts once via ``ray.put`` and the
    coefficient is a map-side compose over the degree stream — no third
    shuffle.  All arithmetic is Python-int floor division on
    nonnegative operands, so truncation == floor == the SQL `//`.
    """
    edges = distinct_rows(edges.select_columns(["subj", "obj"]),
                          ["subj", "obj"], num_buckets)
    edges = edges.map_batches(
        lambda t: typed_table(t.to_pandas(), subj=pa.string(),
                              obj=pa.string()),
        batch_format="pyarrow", batch_size=None).materialize()

    tri = triangle_counts(edges, num_buckets, max_driver_edges).to_pandas()
    tri_ref = ray.put(dict(zip(tri.get("node", ()),
                               (int(x) for x in tri.get("n_triangles", ())))))

    def _deg_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        nodes = pd.concat([df["subj"], df["obj"]], ignore_index=True)
        g = nodes.value_counts().rename_axis("node").reset_index(name="d")
        return typed_table(g, node=pa.string(), d=pa.int64())

    def _final(df: pd.DataFrame) -> pa.Table:
        t = ray.get(tri_ref)
        g = df.groupby("node", as_index=False).agg(deg=("d", "sum"))
        g = g[g["deg"] >= 2]
        g["n_triangles"] = g["node"].map(lambda n: t.get(n, 0)) \
                            .astype(np.int64)
        g["cc_milli"] = [
            (2000 * int(nt)) // (int(d) * (int(d) - 1))
            for nt, d in zip(g["n_triangles"], g["deg"])]
        return typed_table(g, node=pa.string(), deg=pa.int64(),
                           n_triangles=pa.int64(), cc_milli=pa.int64())

    return bucketed_group_apply(
        edges.map_batches(_deg_partial, batch_format="pyarrow",
                          batch_size=None),
        "node", _final, num_buckets)


def adamic_adar(edges: ray.data.Dataset,
                num_buckets: int = 32,
                max_driver_edges: int = 5_000_000,
                max_apex_deg: int = 64) -> ray.data.Dataset:
    """Adamic-Adar link prediction over the undirected co-annotation
    graph: for every NON-adjacent unordered pair (node_a < node_b) with
    at least one common neighbor, ``aa_micro = sum over common
    neighbors z of floor(1e6 / ln(deg(z)))`` plus the common-neighbor
    count — the classic missing-edge score for KG completion (which
    concept pairs SHOULD co-annotate but don't yet).

    Bit-exactness: the weight is floored to integer micro-units PER
    NEIGHBOR before the sum, so the per-pair total is an int64 sum —
    associative and partitioning-independent; ``ln`` is one libm call
    over a small int (DuckDB `ln` == CPython `math.log`, the
    cooccurrence_pmi precedent).  A common neighbor is adjacent to two
    distinct nodes, so deg(z) >= 2 and the weight is finite.

    Plan: wedge enumeration over the SYMMETRIC adjacency bucketed by
    apex (each apex's full neighbor list co-locates, so deg(apex) is
    group-local — no separate degree exchange); per-(a, b) integer sums
    fold under a composite bucket; existing edges leave via the
    bucketed anti-join.  Wedge fan-out is quadratic in apex degree, so
    apexes with deg > ``max_apex_deg`` contribute NO wedges — the
    stopword analogue for AA (a hub neighbor's weight 1/ln(deg) is
    near-zero information anyway; same hub-mitigation family as the
    PPJoin prefix filter and the canonicalize salt).  The cap is part
    of the operator contract and mirrored in the SQL oracle's HAVING.
    Size gate (triangle_counts discipline) scores bounded graphs on the
    driver; pytest pins both paths equal.
    """
    import math

    from dug_ray.shuffle import hash_anti_join

    edges = distinct_rows(edges.select_columns(["subj", "obj"]),
                          ["subj", "obj"], num_buckets)
    edges = edges.map_batches(
        lambda t: typed_table(t.to_pandas(), subj=pa.string(),
                              obj=pa.string()),
        batch_format="pyarrow", batch_size=None).materialize()

    empty = pd.DataFrame({"node_a": [], "node_b": [], "n_common": [],
                          "aa_micro": []})

    if edges.count() <= max_driver_edges:
        pdf = edges.to_pandas()
        if not {"subj", "obj"} <= set(pdf.columns):  # edge-free graph
            pdf = pd.DataFrame({"subj": [], "obj": []})
        adj = _local_adjacency(pdf)
        edge_set = set(zip(pdf["subj"], pdf["obj"]))
        acc: dict[tuple, list] = {}
        for z, nbrs in adj.items():
            if not 2 <= len(nbrs) <= max_apex_deg:
                continue
            w = math.floor(1_000_000.0 / math.log(len(nbrs)))
            ns = sorted(nbrs)
            for i, a in enumerate(ns):
                for b in ns[i + 1:]:
                    if (a, b) in edge_set:
                        continue
                    cur = acc.setdefault((a, b), [0, 0])
                    cur[0] += 1
                    cur[1] += int(w)
        rows = [(a, b, c, s) for (a, b), (c, s) in sorted(acc.items())]
        out = pd.DataFrame(rows, columns=["node_a", "node_b", "n_common",
                                          "aa_micro"]) if rows else empty
        return ray.data.from_arrow(typed_table(
            out, node_a=pa.string(), node_b=pa.string(),
            n_common=pa.int64(), aa_micro=pa.int64()))

    def _adj(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        out = pd.DataFrame({
            "apex": pd.concat([df["subj"], df["obj"]], ignore_index=True),
            "nbr": pd.concat([df["obj"], df["subj"]], ignore_index=True)})
        return typed_table(out, apex=pa.string(), nbr=pa.string())

    adj = edges.map_batches(_adj, batch_format="pyarrow", batch_size=None)

    def _wedges(df: pd.DataFrame) -> pa.Table:
        # deg(apex) is group-local: the apex bucket holds ALL its rows
        deg = df.groupby("apex")["nbr"].transform("size")
        df = df[(deg >= 2) & (deg <= max_apex_deg)]
        deg = deg[df.index]
        df = df.assign(
            w=[math.floor(1_000_000.0 / math.log(int(d))) for d in deg])
        m = df.merge(df, on="apex")
        m = m[m["nbr_x"] < m["nbr_y"]]
        g = (m.groupby(["nbr_x", "nbr_y"], as_index=False)
              .agg(n=("w_x", "size"), s=("w_x", "sum")))
        out = pd.DataFrame({"node_a": g["nbr_x"], "node_b": g["nbr_y"],
                            "n": g["n"].astype(np.int64),
                            "s": g["s"].astype(np.int64)})
        return typed_table(out, node_a=pa.string(), node_b=pa.string(),
                           n=pa.int64(), s=pa.int64())

    cand = bucketed_group_apply(adj, "apex", _wedges, num_buckets)

    def _fold(df: pd.DataFrame) -> pa.Table:
        g = df.groupby(["node_a", "node_b"], as_index=False).agg(
            n_common=("n", "sum"), aa_micro=("s", "sum"))
        return typed_table(g, node_a=pa.string(), node_b=pa.string(),
                           n_common=pa.int64(), aa_micro=pa.int64())

    summed = bucketed_group_apply(cand, ["node_a", "node_b"], _fold,
                                  num_buckets)

    # composite pair key (CURIEs never contain '|' — the repo-wide
    # pipe-join convention) so the single-key anti-join applies
    def _pk(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["_pair"] = df["node_a"] + "|" + df["node_b"]
        return typed_table(df, node_a=pa.string(), node_b=pa.string(),
                           n_common=pa.int64(), aa_micro=pa.int64(),
                           _pair=pa.string())

    def _ek(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        out = pd.DataFrame({"_epair": df["subj"] + "|" + df["obj"]})
        return typed_table(out, _epair=pa.string())

    out = hash_anti_join(
        summed.map_batches(_pk, batch_format="pyarrow", batch_size=None),
        edges.map_batches(_ek, batch_format="pyarrow", batch_size=None),
        "_pair", "_epair", num_buckets)
    return out.map_batches(
        lambda b: b.drop_columns(["_pair"]),
        batch_format="pyarrow", batch_size=None)


def truss_support(edges: ray.data.Dataset,
                  num_buckets: int = 32,
                  max_driver_edges: int = 5_000_000) -> ray.data.Dataset:
    """(subj, obj, support) per distinct undirected edge: support = the
    number of triangles the edge closes (|N(u) & N(v)|) — the k-truss
    building block (an edge survives the k-truss iff support >= k-2),
    the EDGE-grained cohesion census beside ``triangle_counts``'s
    node-grained one.  Zero-support edges are kept (they are exactly
    what the first truss peel removes).

    Same contract and machinery as ``triangle_counts``: edges arrive
    lexicographically ordered (subj < obj, distinct); wedges form at the
    apex (a < b < c), match closing edges under a composite (b, c)
    bucket, and each found triangle credits its THREE edges — all
    already (min, max)-ordered because a < b < c.  The final exchange
    folds support partials against a zero row per edge (the distributed
    left join).  Size gate (``cooc_components`` discipline): a
    driver-bounded edge list is scored locally by set intersection;
    both paths pinned equal by pytest."""
    edges = distinct_rows(edges.select_columns(["subj", "obj"]),
                          ["subj", "obj"], num_buckets)
    edges = edges.map_batches(
        lambda t: typed_table(t.to_pandas(), subj=pa.string(),
                              obj=pa.string()),
        batch_format="pyarrow", batch_size=None).materialize()

    if edges.count() <= max_driver_edges:
        pdf = edges.to_pandas()
        if not {"subj", "obj"} <= set(pdf.columns):  # edge-free graph
            pdf = pd.DataFrame({"subj": pd.Series([], dtype=object),
                                "obj": pd.Series([], dtype=object)})
        adj = _local_adjacency(pdf)
        sup = [len(adj[a] & adj[b])
               for a, b in zip(pdf["subj"], pdf["obj"])]
        out = pd.DataFrame({"subj": pdf["subj"], "obj": pdf["obj"],
                            "support": pd.Series(sup, dtype="int64")})
        return ray.data.from_arrow(typed_table(
            out, subj=pa.string(), obj=pa.string(), support=pa.int64()))

    def _wedges(df: pd.DataFrame) -> pa.Table:
        m = df.merge(df, on="subj")
        m = m[m["obj_x"] < m["obj_y"]]
        out = pd.DataFrame({"a": m["subj"], "b": m["obj_x"],
                            "c": m["obj_y"], "side": "w"})
        return typed_table(out, a=pa.string(), b=pa.string(),
                           c=pa.string(), side=pa.string())

    wedges = bucketed_group_apply(edges, "subj", _wedges, num_buckets)

    def _edge_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        out = pd.DataFrame({"a": pd.Series([None] * len(df), dtype=object),
                            "b": df["subj"], "c": df["obj"], "side": "e"})
        return typed_table(out, a=pa.string(), b=pa.string(),
                           c=pa.string(), side=pa.string())

    closing = edges.map_batches(_edge_side, batch_format="pyarrow",
                                batch_size=None)

    def _edge_sup(df: pd.DataFrame) -> pa.Table:
        w = df[df["side"] == "w"][["a", "b", "c"]]
        e = df[df["side"] == "e"][["b", "c"]]
        tri = w.merge(e, on=["b", "c"])
        pairs = pd.concat([
            pd.DataFrame({"subj": tri["a"], "obj": tri["b"]}),
            pd.DataFrame({"subj": tri["a"], "obj": tri["c"]}),
            pd.DataFrame({"subj": tri["b"], "obj": tri["c"]})],
            ignore_index=True)
        g = pairs.groupby(["subj", "obj"], as_index=False).size() \
                 .rename(columns={"size": "t"})
        return typed_table(g, subj=pa.string(), obj=pa.string(),
                           t=pa.int64())

    partials = bucketed_group_apply(wedges.union(closing), ["b", "c"],
                                    _edge_sup, num_buckets)

    zero = edges.map_batches(
        lambda b: typed_table(b.to_pandas().assign(t=0), subj=pa.string(),
                              obj=pa.string(), t=pa.int64()),
        batch_format="pyarrow", batch_size=None)

    def _final(df: pd.DataFrame) -> pa.Table:
        g = df.groupby(["subj", "obj"], as_index=False) \
              .agg(support=("t", "sum"))
        return typed_table(g, subj=pa.string(), obj=pa.string(),
                           support=pa.int64())

    return bucketed_group_apply(partials.union(zero), ["subj", "obj"],
                                _final, num_buckets)


def apsp_centrality(edges: ray.data.Dataset,
                    max_level: int = 4,
                    num_buckets: int = 32,
                    max_driver_edges: int = 5_000_000) -> ray.data.Dataset:
    """Bounded all-pairs-BFS centrality profile over the undirected
    concept co-annotation graph: for every node, over the set of OTHER
    nodes within ``max_level`` hops —

    - ``reach``          count of nodes reached (dist 1..max_level)
    - ``ecc``            eccentricity within the cap (max dist reached)
    - ``sum_dist``       sum of hop distances
    - ``harmonic_micro`` sum of floor(1e6 / dist) — harmonic centrality
                         in exact integer ppm (1/1 = 1000000, 1/2 =
                         500000, 1/3 = 333333, ...), so the operator is
                         bit-exact across engines with zero floats.

    The hop cap makes the semantics identical on both engines whatever
    the true diameter is (the SQL oracle unrolls exactly ``max_level``
    frontier levels); it is also what makes the operator sane at scale —
    unbounded APSP over a 10^12-triple KG is not a thing, but "profile
    everything within k hops" is the standard curation sweep (reference
    serves only point lookups: src/dug/core/async_search.py).

    Scale shape: node domain here is canonical CURIEs (ontology-bounded,
    NOT corpus-bounded) so the distinct edge list is reduced
    distributedly first and the sweep gates to the driver when it fits
    (``max_driver_edges`` — same discipline as ``bfs_levels`` /
    ``connected_components``).  Above the gate the distributed path runs
    the same multi-source frontier loop as ``bfs_levels`` with the
    composite (src, node) key: one partitioned hash join (frontier |><|
    edges on the node column) + one fused distinct/anti-visited
    set-difference exchange per level, frontiers coalesced between
    levels (the bfs block-count discipline).  Both paths are pinned
    equal by a gate-forced pytest."""
    from dug_ray.shuffle import hash_join

    coalesce_blocks = max(2, num_buckets // 8)
    frontier_buckets = max(coalesce_blocks, num_buckets // 4)
    base = distinct_rows(edges.select_columns(["subj", "obj"]),
                         ["subj", "obj"], num_buckets).materialize()

    def _profile_rows(dists: pd.DataFrame) -> pa.Table:
        """(src, dist>=1) rows -> per-src profile."""
        g = dists.groupby("src")
        out = pd.DataFrame({
            "node": [k for k, _ in g],
            "reach": g.size().to_numpy(),
            "ecc": g["dist"].max().to_numpy(),
            "sum_dist": g["dist"].sum().to_numpy(),
            "harmonic_micro": g["dist"].apply(
                lambda s: int((1_000_000 // s.to_numpy()).sum()))
            .to_numpy(),
        })
        return typed_table(out.sort_values("node"), node=pa.string(),
                           reach=pa.int64(), ecc=pa.int64(),
                           sum_dist=pa.int64(), harmonic_micro=pa.int64())

    if base.count() <= max_driver_edges:
        from collections import defaultdict, deque
        pdf = base.to_pandas()
        if not {"subj", "obj"} <= set(pdf.columns):  # edge-free graph
            pdf = pd.DataFrame({"subj": [], "obj": []})
        adj: dict[str, list[str]] = defaultdict(list)
        for a, b in zip(pdf["subj"], pdf["obj"]):
            adj[a].append(b)
            adj[b].append(a)
        rows = []
        for s in adj:
            dist = {s: 0}
            q = deque([s])
            while q:
                u = q.popleft()
                if dist[u] == max_level:
                    continue
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        q.append(v)
            for n, d in dist.items():
                if d >= 1:
                    rows.append((s, d))
        dists = pd.DataFrame(rows, columns=["src", "dist"])
        return ray.data.from_arrow(_profile_rows(dists))

    def _sym(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        out = pd.DataFrame({
            "u": pd.concat([df["subj"], df["obj"]], ignore_index=True),
            "v": pd.concat([df["obj"], df["subj"]], ignore_index=True)})
        return typed_table(out, u=pa.string(), v=pa.string())

    sym = base.map_batches(_sym, batch_format="pyarrow",
                           batch_size=None).materialize()

    def _diag(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()[["node"]]
        df["src"] = df["node"]
        return typed_table(df[["src", "node"]], src=pa.string(),
                           node=pa.string())

    nodes = distinct_rows(
        sym.map_batches(
            lambda t: t.select(["u"]).rename_columns(["node"]),
            batch_format="pyarrow", batch_size=None),
        ["node"], frontier_buckets)

    def _tag(side: str, src_col: str, node_col: str):
        def _t(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            out = pd.DataFrame({"src": df[src_col],
                                "node": df[node_col]}).drop_duplicates()
            out["side"] = side
            return typed_table(out, src=pa.string(), node=pa.string(),
                               side=pa.string())
        return _t

    def _minus(df: pd.DataFrame) -> pa.Table:
        seen = set(map(tuple, df.loc[df["side"] == "s",
                                     ["src", "node"]].itertuples(
                                         index=False, name=None)))
        cand = df.loc[df["side"] == "c",
                      ["src", "node"]].drop_duplicates()
        keep = [t not in seen for t in cand.itertuples(index=False,
                                                       name=None)]
        out = cand[np.asarray(keep, dtype=bool)] if len(cand) else cand
        return typed_table(out, src=pa.string(), node=pa.string())

    frontier = nodes.map_batches(_diag, batch_format="pyarrow",
                                 batch_size=None) \
        .repartition(coalesce_blocks).materialize()
    frontiers = [frontier]
    for _level in range(1, max_level + 1):
        hops = hash_join(
            frontier.map_batches(
                lambda t: t.rename_columns(["fsrc", "fnode"]),
                batch_format="pyarrow", batch_size=None),
            sym, "fnode", "u", num_buckets)
        cand = hops.map_batches(_tag("c", "fsrc", "v"),
                                batch_format="pyarrow", batch_size=None)
        seen = [f.map_batches(_tag("s", "src", "node"),
                              batch_format="pyarrow", batch_size=None)
                for f in frontiers]
        new = bucketed_group_apply(cand.union(*seen), ["src", "node"],
                                   _minus, frontier_buckets)
        frontier = new.repartition(coalesce_blocks).materialize()
        if frontier.count() == 0:
            break
        frontiers.append(frontier)

    def _dist(level: int):
        def _t(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "dist", pa.nulls(len(batch), pa.int64()).fill_null(level))
        return _t

    leveled = [f.map_batches(_dist(i), batch_format="pyarrow",
                             batch_size=None)
               for i, f in enumerate(frontiers) if i >= 1]
    if not leveled:
        return ray.data.from_arrow(typed_table(
            pd.DataFrame({"node": [], "reach": [], "ecc": [],
                          "sum_dist": [], "harmonic_micro": []}),
            node=pa.string(), reach=pa.int64(), ecc=pa.int64(),
            sum_dist=pa.int64(), harmonic_micro=pa.int64()))
    dists = leveled[0] if len(leveled) == 1 else \
        ray.data.Dataset.union(*leveled)
    return bucketed_group_apply(dists, "src", _profile_rows,
                                frontier_buckets)
