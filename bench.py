"""Benchmark harness: headline KG pipeline + secondary queries.

Prints ONE JSON line:
  {"metric": "kg_pipeline_sec", "value": <sec>, "unit": "sec",
   "queries": {...per-pipeline sec...}, "sf": <dir>, "num_cpus": N,
   "docs": n, "triples": n, "docs_per_sec": r, "triples_per_sec": r}

Crash tolerance (round-5 hardening): the round-4 driver bench died in a
raylet C++ crash mid-run (BENCH_r04.json rc=1) that a same-session rerun
could not reproduce — host-level, not code. The default path therefore no
longer owns a Ray session: it orchestrates two SUBPROCESS legs (headline
repeats; secondary query suite), retries a crashed leg once, and emits the
JSON line from whichever legs survive, so one raylet death costs a leg, not
the artifact.

Env knobs:
  GRAFT_SF_DIR     input dir (default /root/testdata/sf0.1)
  RAY_GRAFT_CPUS   num_cpus for the Ray session (default: the CPUs in this
                   process's affinity mask)
  GRAFT_REPLICATE  amplify the corpus K-fold with distinct shifted doc_ids
                   so the job is long enough to measure scaling (default 200
                   -> 1M docs at sf0.1). Deterministic, input unchanged.

``--scaling`` runs the headline pipeline in two fresh processes
(num_cpus=1 then N, N = the CPUs in this process's affinity mask) on the
same input and reports both throughputs plus efficiency = (T1/TN)/N
(BASELINE.md protocol; 1.0 = linear).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def _num_cpus() -> int:
    """``RAY_GRAFT_CPUS``, else the CPUs this process may run on."""
    return int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))


def _read_docs_amplified(sf_dir: str, ncpu: int, k_total: int):
    """Deterministic K-fold amplification with DISTINCT doc_ids.

    Each block is expanded in place to K shifted copies (doc_id +=
    k * 10**6), so the amplified corpus behaves like K-times more
    *distinct* documents — dedup/shuffle volumes scale honestly, unlike
    replicating identical doc_ids."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    base = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "lang", "source"],
                           override_num_blocks=2 * ncpu)

    def amplify(batch: pa.Table) -> pa.Table:
        parts = []
        for k in range(k_total):
            parts.append(batch.set_column(
                batch.column_names.index("doc_id"), "doc_id",
                pc.add(batch["doc_id"], k * 10**6)))
        return pa.concat_tables(parts)

    return base.map_batches(amplify, batch_format="pyarrow", batch_size=None)


def leg_headline() -> dict:
    """One subprocess leg: all headline repeats inside ONE Ray session
    (min-of-N with warm workers on repeats 2+, same semantics as rounds
    1-4) plus the 20x concepts shuffle. Prints one JSON line."""
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    ncpu = _num_cpus()
    replicate = int(os.environ.get("GRAFT_REPLICATE", "200"))
    repeats = int(os.environ.get("GRAFT_BENCH_REPEATS", "3"))

    import shutil

    import ray
    import ray.data as rd

    from dug_ray.cli import _ensure_ray
    from dug_ray.io import spanify
    from dug_ray.pipelines import kg
    from dug_ray.stages.canonicalize import build_concepts
    from dug_ray.stages.materialize import materialize_graph
    from dug_ray.stages.parse import parse_elements

    _ensure_ray(ncpu)
    doc_path = f"{sf_dir}/documents.parquet"
    # warm the page cache so scaling runs measure compute, not first disk read
    with open(doc_path, "rb") as f:
        f.read()

    def docs(n_rep):
        return spanify(_read_docs_amplified(sf_dir, ncpu, n_rep))

    out_dir = f"/tmp/bench_out/kg_{ncpu}"
    # untimed 1x warmup: spins up the workers / imports / object-store
    # paths so even a REPEATS=1 leg measures the WARM pipeline — Ray
    # session startup is a fixed per-job cost that amortizes to zero on a
    # real long-running cluster job, and at ~2-4 s it suppresses the
    # N-CPU leg's measured throughput far more than the 1-CPU leg's
    # (biasing raw efficiency downward)
    if not os.environ.get("GRAFT_BENCH_NO_WARMUP"):
        shutil.rmtree(out_dir, ignore_errors=True)
        materialize_graph(kg.triples(docs(1), parse_elements), out_dir)
    # GRAFT_BENCH_REPEATS>1 -> take the min (least-interference estimate:
    # this shared-host VM shows ~9% steal, single runs vary +-30%; default
    # 3 so round-over-round deltas aren't read off noise)
    times = []
    for _ in range(repeats):
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.time()
        materialize_graph(kg.triples(docs(replicate), parse_elements), out_dir)
        times.append(round(time.time() - t0, 3))
    n_triples = rd.read_parquet(out_dir).count()

    result = {"times": times, "triples": int(n_triples)}

    # secondary pipeline: full concepts table (canonicalization shuffle),
    # bounded to 20x amplification so it doesn't dominate scaling-run wall
    if not os.environ.get("GRAFT_BENCH_SKIP_SECONDARY"):
        t0 = time.time()
        build_concepts(kg.linked(docs(min(replicate, 20)), parse_elements)).to_pandas()
        result["concepts_20x"] = round(time.time() - t0, 3)

    ray.shutdown()
    return result


def leg_secondary() -> dict:
    """Subprocess leg: training-data op families at base sf (unamplified,
    single runs). Separate from the headline leg so a raylet death in
    either costs only that leg."""
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    import ray

    from dug_ray import queries as q
    from dug_ray.cli import _ensure_ray
    _ensure_ray(_num_cpus())
    out = {}
    for name in ("dedup_exact", "minhash_pairs", "ann_topk", "text_quality",
                 "simhash", "search_elements", "curated_corpus"):
        t0 = time.time()
        q.QUERIES[name](sf_dir).count()
        out[name] = round(time.time() - t0, 3)
    ray.shutdown()
    return out


def _run_leg(name: str, retries: int = 1) -> dict | None:
    """Run one bench leg in a fresh subprocess; retry a crashed leg once.
    Returns the leg's parsed JSON, or None if every attempt died."""
    for attempt in range(retries + 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--leg", name],
            env=dict(os.environ), capture_output=True, text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        if proc.returncode == 0:
            for line in reversed(proc.stdout.strip().splitlines()):
                line = line.strip()
                if line.startswith("{"):
                    return json.loads(line)
        sys.stderr.write(
            f"[bench] leg {name!r} attempt {attempt + 1} failed "
            f"(rc={proc.returncode}); tail: {proc.stderr[-500:]}\n")
    return None


def run_bench() -> dict:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    ncpu = _num_cpus()
    replicate = int(os.environ.get("GRAFT_REPLICATE", "200"))

    queries: dict = {}
    head = _run_leg("headline")
    if head is None:
        # both attempts died (raylet-level): emit a parseable artifact that
        # says so rather than crashing the driver's bench step
        return {"metric": "kg_pipeline_sec", "value": None, "unit": "sec",
                "error": "headline leg crashed twice", "queries": {},
                "sf": sf_dir, "num_cpus": ncpu}
    times = head["times"]
    headline = min(times)
    queries["kg_full"] = headline
    queries["kg_full_runs"] = times
    if "concepts_20x" in head:
        queries["concepts_20x"] = head["concepts_20x"]

    if not os.environ.get("GRAFT_BENCH_SKIP_SECONDARY"):
        sec = _run_leg("secondary")
        if sec is not None:
            queries.update(sec)
        else:
            queries["secondary_error"] = "secondary leg crashed twice"

    import duckdb
    n_docs = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{sf_dir}/documents.parquet')"
    ).fetchone()[0] * replicate
    n_triples = head["triples"]
    return {
        "metric": "kg_pipeline_sec",
        "value": headline,
        "unit": "sec",
        "queries": queries,
        "sf": sf_dir,
        "num_cpus": ncpu,
        "replicate": replicate,
        "docs": int(n_docs),
        "triples": int(n_triples),
        "docs_per_sec": round(n_docs / headline, 1),
        "triples_per_sec": round(n_triples / headline, 1),
    }


def _scaling_window(n_pairs: int) -> dict:
    """One protocol window: legs INTERLEAVED (1,N)xN_pairs so both CPU
    levels sample the same host-noise slice — running all 1-CPU legs before
    all N-CPU legs lets mid-measurement hypervisor drift bias the ratio
    (observed: a host slowdown between legs moved raw efficiency by ~0.2
    with identical code). min-of-N per leg; every raw run reported, plus a
    simultaneous hardware-capacity probe (the honest ceiling on shared
    hardware) and the hw-normalized efficiency."""
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    replicate = int(os.environ.get("GRAFT_REPLICATE", "200"))
    n = len(os.sched_getaffinity(0))

    def run(ncpu: int) -> dict:
        # REPEATS=1 but the leg itself runs an untimed 1x warmup first
        # (see leg_headline), so the single timed run is WARM — scaling
        # measures the pipeline, not ray.init / worker spin-up.
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_BENCH_REPEATS="1",
                   GRAFT_BENCH_SKIP_SECONDARY="1")
        for attempt in range(2):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--leg", "headline"],
                env=env, capture_output=True, text=True,
                cwd=os.path.dirname(os.path.abspath(__file__)))
            if proc.returncode == 0:
                for line in reversed(proc.stdout.strip().splitlines()):
                    if line.strip().startswith("{"):
                        leg = json.loads(line)
                        return {"value": min(leg["times"]), "triples": leg["triples"]}
            sys.stderr.write(f"[bench] scaling leg ncpu={ncpu} attempt "
                             f"{attempt + 1} failed (rc={proc.returncode})\n")
        raise RuntimeError(f"scaling leg ncpu={ncpu} crashed twice")

    import duckdb
    docs = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{sf_dir}/documents.parquet')"
    ).fetchone()[0] * replicate

    pairs = [(run(1), run(n)) for _ in range(n_pairs)]
    runs1 = [p[0]["value"] for p in pairs]
    runs_n = [p[1]["value"] for p in pairs]
    # headline estimator: min of each leg — both mins approximate the
    # noise-free time of their leg (noise only inflates). Per-pair ratios
    # are also reported for transparency: they bound how much cross-pair
    # drift could move the window (noise on the 1-leg inflates a pair's
    # ratio, on the N-leg deflates it).
    t_lo, t_hi = min(runs1), min(runs_n)
    hw = _hw_capacity_ratio(n)
    return {
        "value": round((t_lo / t_hi) / n, 3),
        "n_cpus": n,
        "sec_1": t_lo,
        "sec_n": t_hi,
        "runs_1": runs1,
        "runs_n": runs_n,
        "per_pair_efficiency": [round((a / b) / n, 3)
                                for a, b in zip(runs1, runs_n)],
        "docs_per_sec_1": round(docs / t_lo, 1),
        "docs_per_sec_n": round(docs / t_hi, 1),
        "hw_capacity_ratio_1_to_n": round(hw, 2),
        "attainable_efficiency": round(hw / n, 3),
        "normalized_efficiency": round((t_lo / t_hi) / hw, 3),
        "sf": sf_dir,
        "docs": int(docs),
    }


def run_scaling() -> dict:
    """Multi-window scaling protocol: run GRAFT_SCALING_WINDOWS (default 3)
    independent windows and report the whole BAND — each window carries its
    raw efficiency, its own hardware-capacity probe and the normalized
    efficiency — with the headline = the MEDIAN window's raw value (not the
    best window; BASELINE.md records why: raw tracks host noise, the
    per-window hw probes show the pipeline saturating what the VM
    delivers)."""
    n_windows = int(os.environ.get("GRAFT_SCALING_WINDOWS", "3"))
    n_pairs = int(os.environ.get("GRAFT_SCALING_PAIRS", "2"))
    windows = [_scaling_window(n_pairs) for _ in range(n_windows)]
    by_raw = sorted(windows, key=lambda w: w["value"])
    # median window; for an EVEN window count this is the lower-middle one
    # (conservative — the headline must be a real window so its legs and hw
    # probe can be splatted below, so no averaging of the two middles)
    median = by_raw[(len(by_raw) - 1) // 2]
    return {
        "metric": "scaling_efficiency_1_to_n",
        "value": median["value"],           # median window's raw efficiency
        "unit": "ratio",
        "windows": windows,                 # the full band, in run order
        "raw_band": [by_raw[0]["value"], by_raw[-1]["value"]],
        "normalized_band": sorted(w["normalized_efficiency"] for w in windows),
        **{k: median[k] for k in (
            "n_cpus", "sec_1", "sec_n", "runs_1", "runs_n", "per_pair_efficiency",
            "docs_per_sec_1", "docs_per_sec_n", "hw_capacity_ratio_1_to_n",
            "attainable_efficiency", "normalized_efficiency", "sf", "docs")},
    }


def _hw_capacity_ratio(n: int) -> float:
    """Measured parallel-capacity ratio of this VM for an arrow/pandas
    string workload at n processes vs 1 (the honest ceiling for the
    efficiency metric on shared hardware; below n when cores are shared)."""
    import multiprocessing as mp

    def work(q):
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import pyarrow.compute as pcc
        words = np.array(["merge", "hash", "slow", "query", "join",
                          "table", "the", "data"], dtype=object)
        texts = pd.Series([" ".join(np.random.RandomState(i).choice(words, 60))
                           for i in range(1000)])
        arr = pa.array(texts)
        t0 = time.time()
        k = 0
        while time.time() - t0 < 3:
            toks = pcc.split_pattern(arr, " ")
            enc = pcc.dictionary_encode(toks.flatten())
            pd.DataFrame({"c": enc.indices.to_numpy(zero_copy_only=False)}).groupby("c").size()
            k += 1
        q.put(k)

    totals = {}
    for np_ in (1, n):
        q = mp.Queue()
        ps = [mp.Process(target=work, args=(q,)) for _ in range(np_)]
        [p.start() for p in ps]
        totals[np_] = sum(q.get() for _ in ps)  # drain before join
        [p.join() for p in ps]
    return totals[n] / totals[1]


def run_query_timings() -> dict:
    """Time every registered query at sf0.01 (round-over-round tracker)."""
    import ray

    from dug_ray import queries as q
    from dug_ray.cli import _ensure_ray
    _ensure_ray(_num_cpus())
    sf = os.environ.get("GRAFT_QUERY_SF", "/root/testdata/sf0.01")
    out = {}
    for name, fn in q.QUERIES.items():
        t0 = time.time()
        r = fn(sf)
        import pandas as pd
        n = len(r) if isinstance(r, pd.DataFrame) else r.count()
        out[name] = {"sec": round(time.time() - t0, 3), "rows": int(n)}
    ray.shutdown()
    return {"metric": "query_timings", "sf": sf, "queries": out}


if __name__ == "__main__":
    if "--leg" in sys.argv:
        which = sys.argv[sys.argv.index("--leg") + 1]
        print(json.dumps({"headline": leg_headline,
                          "secondary": leg_secondary}[which]()))
    elif "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--queries" in sys.argv:
        print(json.dumps(run_query_timings()))
    else:
        print(json.dumps(run_bench()))
