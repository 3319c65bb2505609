#!/usr/bin/env python3
"""dug_ray benchmark: seeded, oracle-checked crawl and index workloads.

    python3 perfbench/run.py --workload crawl_dense --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --all            # every workload, one table

Run it from the repository root (Ray workers import ``dug_ray`` through the
working directory of the process that started Ray). One run owns one Ray session with one CPU per
CPU in this process's affinity mask, generates its corpus from ``--seed``,
computes the expected output with the DuckDB oracles, then times the
user-facing entry points (``dug_ray.cli.cmd_crawl`` / ``cmd_index`` and
``stages.materialize.subject_lookup``) and checks every output. The last
stdout line is the result JSON; the line before it holds the host
fingerprint, per-metric sample counts and any problems found. See
perfbench/README.md for the workloads, metrics and layer table.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "crawl_dense": {"kind": "crawl", "corpus": "dense", "docs": 24_000},
    "crawl_sparse": {"kind": "crawl", "corpus": "sparse", "docs": 8_000},
    "index": {"kind": "index", "corpus": "dense", "docs": 5_000},
}
JOB_SHARE = 0.7           # of --seconds: timed jobs run until they add up to it
MIN_JOBS = 6              # ... and at least this many, so the median has a middle
LOOKUP_ROUNDS = 30        # read phase: every key this many times, split over the
                          # first MIN_JOBS jobs (16 keys: 480 lookups, tail p97)
WARM_DOCS = 300           # warm-up corpus, a different seed and directory
MAX_JOBS = 12             # caps a run whose jobs became very fast
ABSENT_SUBJECTS = 4       # lookup keys that are not in the table (misses)
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.0, 96.0, 95.0, 90.0, 75.0, 50.0)
OBJECT_STORE_BYTES = 1_000_000_000
# Ray kills workers idle for more than 1 s by default, so the benchmark's own
# pauses between jobs (lookups, garbage collection) would make each job
# restart a varying number of worker processes (+-15% job time on `index`).
# A one-job CLI run has no such pauses; idle workers are kept for a minute.
IDLE_WORKER_KEEP_MS = 60_000

END_TO_END = {
    "setup_s": "s", "docs_per_s": "docs/s", "triples_per_s": "triples/s",
    "lookup_p50_ms": "ms", "lookup_tail_ms": "ms", "peak_rss_mb": "MB",
    "output_mb": "MB",
}
PER_LAYER = {
    "io.read.busy_s": "s", "io.spanify.busy_s": "s", "io.spans": "count",
    "parse.busy_s": "s", "parse.elements": "count",
    "annotate.busy_s": "s", "annotate.tokens": "count", "annotate.mentions": "count",
    "annotate.hit_ratio": "ratio",
    "link.busy_s": "s", "link.linked": "count", "link.keep_ratio": "ratio",
    "expand.busy_s": "s", "expand.rows_out": "count",
    "shuffle.bucket.busy_s": "s",
    "materialize.exchange_s": "s", "materialize.exchange_bytes": "bytes",
    "materialize.exchange_blocks": "count", "materialize.wait_s": "s",
    "materialize.write.busy_s": "s", "materialize.partitions": "count",
    "materialize.skew": "ratio", "materialize.dedup_ratio": "ratio",
    "materialize.spill_bytes": "bytes",
    "lookup.files": "count", "lookup.bytes_read": "bytes", "lookup.scan_ratio": "ratio",
    "canonicalize.partial.busy_s": "s", "canonicalize.exchange_s": "s",
    "canonicalize.pairs": "count", "canonicalize.element_terms.busy_s": "s",
    "kg.linked_cache_s": "s", "export.write_s": "s", "export.rows": "count",
    "ray.overhead_s": "s", "ray.util": "ratio", "scale.docs_per_s_1cpu": "docs/s",
    "scale.efficiency": "ratio", "scale.host_probe": "ratio", "trace.overhead_frac": "ratio",
}


def _log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# session, corpora, jobs
# --------------------------------------------------------------------------

def _ray_temp_dir() -> str | None:
    """Ray's session files inside the checkout when the path leaves room
    for its unix sockets (107 bytes); otherwise Ray's default."""
    d = os.path.join(ROOT, ".ray")
    return d if len(d) + 70 <= 107 else None


def start_session(ncpu: int, detail: dict):
    """The run's one Ray session (one per process: a second session in the
    same process reuses job id 01000000, which the kg session cache keys
    on; idle workers kept for IDLE_WORKER_KEEP_MS), then the program import.
    Records the session directory in ``detail``."""
    import ray
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, _temp_dir=_ray_temp_dir(),
             _system_config={"idle_worker_killing_time_threshold_ms": IDLE_WORKER_KEEP_MS})
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    with contextlib.suppress(AttributeError):
        detail["ray_session_dir"] = ray._private.worker._global_node.get_session_dir_path()
    from dug_ray import cli
    return cli


def remove_session_files(session_dir: str | None) -> None:
    """Delete a finished Ray session's directory when it is inside the
    checkout (Ray keeps every session's logs otherwise)."""
    tmp = _ray_temp_dir()
    if not (tmp and session_dir and session_dir.startswith(tmp + os.sep)):
        return
    shutil.rmtree(session_dir, ignore_errors=True)
    latest = os.path.join(tmp, "session_latest")
    if os.path.islink(latest) and not os.path.exists(latest):
        os.unlink(latest)
    with contextlib.suppress(OSError):
        os.rmdir(tmp)


def make_corpus(workload: str, seed: int, n_docs: int, sf_dir: str) -> dict:
    from perfbench import workloads
    gen = {"dense": workloads.dense_corpus, "sparse": workloads.sparse_corpus}
    table = gen[WORKLOADS[workload]["corpus"]](seed, n_docs)
    workloads.write_corpus(table, sf_dir)
    import pyarrow.compute as pc
    tokens = pc.sum(pc.list_value_length(pc.split_pattern(table["text"], " "))).as_py()
    return {"docs": table.num_rows, "tokens": int(tokens)}


def workload_corpus(args, work: str) -> tuple[str, dict]:
    """The run's corpus, generated from ``--seed``; (sf_dir, sizes)."""
    sf = os.path.join(work, "corpus")
    n_docs = max(50, int(WORKLOADS[args.workload]["docs"] * args.scale))
    return sf, make_corpus(args.workload, args.seed, n_docs, sf)


def job_input(sf_dir: str, work: str, kind: str, tag: str) -> str:
    """The corpus directory a job reads. An index job gets a fresh copy, so
    the single-slot kg session cache (keyed by directory) never serves it."""
    if kind != "index":
        return sf_dir
    d = os.path.join(work, f"corpus_{tag}")
    os.makedirs(d, exist_ok=True)
    shutil.copyfile(os.path.join(sf_dir, "documents.parquet"), os.path.join(d, "documents.parquet"))
    return d


@dataclass
class Expected:
    """Oracle expectations for one corpus (computed outside every timer)."""
    con: object               # DuckDB connection holding the expected tables
    triples: int              # kg_triples rows
    sorted_triples: object    # kg_triples as checks.expected_sorted gives it
    index: dict | None        # export dataset -> rows (index workload)
    counts: dict              # subject -> rows
    keys: list                # lookup keys: every subject plus absent ones


def expect(sf_dir: str, kind: str, seed: int) -> Expected:
    from perfbench import checks
    con = checks.oracle_connection(sf_dir)
    triples = checks.expect_triples(con)
    index = checks.expect_index(con) if kind == "index" else None
    counts = checks.subject_counts(con)
    return Expected(con, triples, checks.expected_sorted(con), index, counts,
                    lookup_keys(list(counts), seed))


def run_job(cli, kind: str, sf_dir: str, out_dir: str) -> tuple[float, dict]:
    """One crawl or index through the CLI entry point; (wall s, its report)."""
    buf = io.StringIO()
    ns = argparse.Namespace(num_cpus=None, sf_dir=sf_dir, out=out_dir,
                            parser="dbgap", resumable=False)
    fn = cli.cmd_crawl if kind == "crawl" else cli.cmd_index
    t = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = fn(ns)
    dt = time.perf_counter() - t
    if rc != 0:
        raise RuntimeError(f"{fn.__name__} returned {rc}")
    return dt, json.loads(buf.getvalue().strip().splitlines()[-1])


def warm_up(cli, workload: str, seed: int, work: str) -> None:
    """One untimed job on a small separate corpus (its own directory, so the
    kg session cache never serves a timed run)."""
    sf = os.path.join(work, "warm")
    make_corpus(workload, seed + 1_000_003, WARM_DOCS, sf)
    run_job(cli, WORKLOADS[workload]["kind"], sf, os.path.join(work, "warm_out"))


def setup(workload: str, seed: int, work: str, ncpu: int, detail: dict):
    """Ray up, dug_ray imported, warm-up done; (cli module, set-up seconds
    since process start)."""
    from perfbench.hostinfo import process_age_s
    cli = start_session(ncpu, detail)
    warm_up(cli, workload, seed, work)
    age = process_age_s()
    return cli, age if age is not None else time.perf_counter() - _T0


def _subprocess_json(argv: list[str], timeout: float) -> dict:
    """Run this script in a fresh process; parse its last stdout line."""
    p = subprocess.run([sys.executable, os.path.abspath(__file__)] + argv, cwd=ROOT,
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, timeout=timeout)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{argv} exited {p.returncode}")
    return json.loads(lines[-1])


# --------------------------------------------------------------------------
# lookups
# --------------------------------------------------------------------------

def lookup_keys(subjects: list[str], seed: int) -> list[str]:
    absent, i = [], 0
    while len(absent) < ABSENT_SUBJECTS:
        key = f"MONDO:9{seed % 100_000:05d}{i}"
        if key not in subjects:
            absent.append(key)
        i += 1
    return sorted(subjects) + absent


def lookup_chunks(keys: list[str], seed: int) -> list[list[str]]:
    """The read phase: a seeded shuffle in which every key appears
    LOOKUP_ROUNDS times (uniform over keys, with each key's share fixed, so
    the tail percentile always falls inside the same key's samples), cut
    into MIN_JOBS consecutive chunks, one after each of the first timed
    jobs. Spreading the lookups over the run averages out short slow spells
    of the host instead of sampling one of them."""
    order = keys * LOOKUP_ROUNDS
    random.Random(seed).shuffle(order)
    n = len(order)
    return [order[i * n // MIN_JOBS:(i + 1) * n // MIN_JOBS] for i in range(MIN_JOBS)]


def read_phase(out_dir: str, keys: list[str], counts: dict, stats: dict) -> list[float]:
    """Closed loop, one client: ``subject_lookup`` on each of ``keys`` in
    turn. Returns latencies in ms; records row-count mismatches and raised
    lookups in ``stats``."""
    from dug_ray.stages.materialize import subject_lookup
    lat: list[float] = []
    for key in keys:
        stats["attempted"] += 1
        try:
            t = time.perf_counter()
            res = subject_lookup(out_dir, key)
            lat.append((time.perf_counter() - t) * 1e3)
        except Exception as e:  # noqa: BLE001 - counted as a failed operation
            stats["failed"] += 1
            stats["problems"].append(f"lookup {key} raised {type(e).__name__}: {e}")
            continue
        if res.num_rows != counts.get(key, 0):
            stats["problems"].append(f"lookup {key}: {res.num_rows} rows, "
                                     f"oracle has {counts.get(key, 0)}")
    return lat


def check_lookups(con, out_dir: str, keys: list[str]) -> list[str]:
    """Each distinct key once: the full result equals the oracle rows in
    (pred, obj) order; absent keys return nothing."""
    from perfbench import checks
    from dug_ray.stages.materialize import subject_lookup
    problems = []
    for key in keys:
        try:
            problems += [f"{key}: {p}" for p in
                         checks.check_lookup(subject_lookup(out_dir, key),
                                             checks.subject_rows(con, key))]
        except Exception as e:  # noqa: BLE001 - reported as a problem
            problems.append(f"{key}: {type(e).__name__}: {e}")
    return problems


def tail(lat: list[float]) -> tuple[str, float]:
    """The highest ladder percentile with at least 10 samples beyond it."""
    import numpy as np
    n = len(lat)
    q = next((q for q in TAIL_LADDER if n * (1 - q / 100) >= 10), 50.0)
    return f"p{q:g}", float(np.percentile(lat, q))


def data_bytes(out_dir: str, kind: str) -> int:
    import glob
    pat = ["part-*.parquet"] if kind == "crawl" else ["elements/*.parquet",
                                                      "concepts/*.parquet", "kg/*.parquet"]
    return sum(os.path.getsize(f) for p in pat for f in glob.glob(os.path.join(out_dir, p)))


# --------------------------------------------------------------------------
# timed run
# --------------------------------------------------------------------------

def timed_run(args, work: str, detail: dict) -> dict:
    from perfbench import checks
    from perfbench.hostinfo import MemorySampler, cpu_count, cpu_ticks
    spec = WORKLOADS[args.workload]
    kind, ncpu = spec["kind"], cpu_count()
    stats = {"attempted": 0, "failed": 0, "problems": []}

    cli, setup_s = setup(args.workload, args.seed, work, ncpu, detail)
    phases = {"setup": time.perf_counter() - _T0}
    sf, corpus = workload_corpus(args, work)
    ex = expect(sf, kind, args.seed)

    table_dir = None
    if kind == "index":           # the read phase needs a triple table
        table_dir = os.path.join(work, "lookup_table")
        stats["attempted"] += 1
        try:
            run_job(cli, "crawl", sf, table_dir)
        except Exception as e:  # noqa: BLE001 - counted as a failed operation
            stats["failed"] += 1
            stats["problems"].append(f"lookup table crawl: {type(e).__name__}: {e}")
            table_dir = None
    phases["prepare"] = time.perf_counter() - _T0

    # One untimed job on the workload corpus first: it brings Ray's worker
    # pools up to this corpus size, and it is the job whose memory is
    # sampled (the sampler reads the page tables of every Ray process, which
    # would slow a timed job down).
    outputs: list[tuple[str, dict]] = []
    stats["attempted"] += 1
    with MemorySampler(interval_s=0.25) as mem:
        try:
            out = os.path.join(work, "out_mem")
            outputs.append((out, run_job(cli, kind, job_input(sf, work, kind, "mem"), out)[1]))
        except Exception as e:  # noqa: BLE001 - counted as a failed operation
            stats["failed"] += 1
            stats["problems"].append(f"memory job: {type(e).__name__}: {e}")

    jobs: list[tuple[str, float, dict]] = []
    chunks = lookup_chunks(ex.keys, args.seed)
    lat: list[float] = []
    ticks0 = cpu_ticks()
    for k in range(MAX_JOBS):
        job_sf = job_input(sf, work, kind, str(k))
        out = os.path.join(work, f"out{k}")
        stats["attempted"] += 1
        gc.collect()        # the last job's garbage is not collected on this job's clock
        try:
            dt, report = run_job(cli, kind, job_sf, out)
            jobs.append((out, dt, report))
        except Exception as e:  # noqa: BLE001 - counted as a failed operation
            stats["failed"] += 1
            stats["problems"].append(f"job {k}: {type(e).__name__}: {e}")
        if kind == "crawl" and jobs:
            table_dir = jobs[-1][0]          # the table the last crawl wrote
        if k < MIN_JOBS and table_dir:
            lat += read_phase(table_dir, chunks[k], ex.counts, stats)
        if stats["failed"] > 2 or (len(jobs) >= MIN_JOBS and
                                   sum(j[1] for j in jobs) >= JOB_SHARE * args.seconds):
            break

    phases["timed"] = time.perf_counter() - _T0
    ticks = {k: v - ticks0[k] for k, v in cpu_ticks().items()}
    problems = stats["problems"]
    for out, report in outputs + [(j[0], j[2]) for j in jobs]:
        name = os.path.basename(out)
        if kind == "crawl":
            problems += [f"{name}: {p}" for p in
                         checks.check_crawl_output(ex.con, out, ex.sorted_triples)]
            if report.get("triples") != ex.triples:
                problems.append(f"{name}: reported {report.get('triples')} triples, "
                                f"oracle has {ex.triples}")
        else:
            problems += [f"{name}: {p}" for p in checks.check_index_output(ex.con, out)]
            if any(report.get(p) != n for p, n in ex.index.items()):
                problems.append(f"{name}: reported {report}, oracle has {ex.index}")
    if kind == "index" and table_dir:
        problems += [f"lookup table: {p}" for p in
                     checks.check_crawl_output(ex.con, table_dir, ex.sorted_triples)]
    if table_dir:
        problems += check_lookups(ex.con, table_dir, ex.keys)
    written = ex.triples
    if kind == "index" and jobs:
        written = checks.index_triples(jobs[-1][0])
        if written != ex.triples:
            problems.append(f"index encodes {written} triples, kg_triples oracle has {ex.triples}")

    if not jobs or not lat:
        raise RuntimeError("no successful job or lookup: " + "; ".join(problems[:5]))
    job_s = statistics.median(j[1] for j in jobs)
    tail_name, tail_ms = tail(lat)
    metrics = {
        "setup_s": setup_s,
        "docs_per_s": corpus["docs"] / job_s,
        "triples_per_s": written / job_s,
        "lookup_p50_ms": float(statistics.median(lat)),
        "lookup_tail_ms": tail_ms,
        "peak_rss_mb": mem.peak_mb,
        "output_mb": data_bytes(jobs[-1][0], kind) / 1e6,
    }
    detail.update({
        "docs": corpus["docs"], "tokens": corpus["tokens"], "triples": ex.triples,
        "job_s": [round(j[1], 4) for j in jobs],
        "phases_s": {k: round(v, 2) for k, v in phases.items()},
        "host_steal_frac": ticks["steal"] / max(1, sum(ticks.values())),
        "lookup_tail_percentile": tail_name,
        "samples": {"setup_s": 1, "docs_per_s": len(jobs),
                    "triples_per_s": len(jobs), "lookup_p50_ms": len(lat),
                    "lookup_tail_ms": len(lat), "peak_rss_mb": mem.samples,
                    "output_mb": 1},
        "attempted": stats["attempted"], "failed": stats["failed"],
        "failed_frac": stats["failed"] / stats["attempted"],
        "problems": problems,
    })
    return metrics


# --------------------------------------------------------------------------
# traced run
# --------------------------------------------------------------------------

def traced_run(args, work: str, detail: dict) -> dict:
    from perfbench import checks
    from perfbench import layers
    from perfbench.hostinfo import cpu_count
    from perfbench.tracing import RayStats, Tracer, host_probe
    spec = WORKLOADS[args.workload]
    kind, ncpu = spec["kind"], cpu_count()
    probe = host_probe(ncpu)
    cli, _ = setup(args.workload, args.seed, work, ncpu, detail)
    sf, corpus = workload_corpus(args, work)
    ex = expect(sf, kind, args.seed)

    tracer = Tracer()
    rs = RayStats(tracer)
    problems: list[str] = []

    def job(tag: str) -> float:
        job_sf = job_input(sf, work, kind, tag)
        with tracer.span(tag):
            dt, _ = run_job(cli, kind, job_sf, os.path.join(work, f"out_{tag}"))
        return dt

    plain_s = job("plain")
    rs.install()
    traced_s = job("job")
    for tag in ("plain", "job"):
        out = os.path.join(work, f"out_{tag}")
        problems.extend(f"{tag}: {p}" for p in (
            checks.check_crawl_output(ex.con, out, ex.sorted_triples) if kind == "crawl"
            else checks.check_index_output(ex.con, out)))
    ctx = layers.Context(sf_dir=sf, work=work, tracer=tracer, stats=rs,
                         tokens=corpus["tokens"], keys=ex.keys)
    metrics, errors = layers.measure(ctx)
    rs.uninstall()
    if ctx.table_dir:
        problems += [f"layer table: {p}" for p in
                     checks.check_crawl_output(ex.con, ctx.table_dir, ex.sorted_triples)]
        problems += check_lookups(ex.con, ctx.table_dir, ex.keys)

    job_busy = rs.busy_s("job")
    metrics["ray.util"] = job_busy / (traced_s * ncpu) if job_busy is not None else None
    layer_busy = [metrics.get(k) for k in layers.JOB_LAYERS[kind]]
    metrics["ray.overhead_s"] = (plain_s - sum(layer_busy) / ncpu
                                 if None not in layer_busy else None)
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    metrics["scale.host_probe"] = probe
    detail["spans"] = tracer.spans
    detail["ray_executions"] = rs.executions
    detail["ray_stats_error"] = rs.error

    # 1-CPU baseline in a fresh process, after this session is gone
    import ray
    ray.shutdown()
    try:
        one = _subprocess_json(["--workload", args.workload, "--seed", str(args.seed),
                                "--scale", str(args.scale), "--scale-probe"], 170)
        dps_1 = one["docs_per_s"]
        metrics["scale.docs_per_s_1cpu"] = dps_1
        metrics["scale.efficiency"] = (corpus["docs"] / plain_s) / dps_1 / ncpu
    except Exception as e:  # noqa: BLE001 - a missing baseline reads null
        errors["scale"] = str(e)
        metrics["scale.docs_per_s_1cpu"] = metrics["scale.efficiency"] = None
    detail.update({"docs": corpus["docs"], "tokens": corpus["tokens"], "triples": ex.triples,
                   "plain_job_s": plain_s, "traced_job_s": traced_s,
                   "layer_errors": errors, "problems": problems,
                   "samples": {k: 1 for k in PER_LAYER},
                   "attempted": 2, "failed": 0, "failed_frac": 0.0})
    return {k: metrics.get(k) for k in PER_LAYER}


def scale_probe(args, work: str, detail: dict) -> dict:
    """Set up at 1 CPU and time one job on the workload corpus."""
    kind = WORKLOADS[args.workload]["kind"]
    cli, _ = setup(args.workload, args.seed, work, 1, detail)
    sf, corpus = workload_corpus(args, work)
    dt, _ = run_job(cli, kind, sf, os.path.join(work, "out"))
    return {"docs_per_s": corpus["docs"] / dt}


# --------------------------------------------------------------------------
# all workloads, one table
# --------------------------------------------------------------------------

def run_all(args) -> int:
    rc = 0
    rows = []
    for w in WORKLOADS:
        argv = ["--workload", w, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", str(args.scale)]
        p = subprocess.run([sys.executable, os.path.abspath(__file__)] + argv, cwd=ROOT,
                           stdout=subprocess.PIPE, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or len(lines) < 2:
            print(f"{w}: FAILED (exit {p.returncode})")
            rc = 1
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        rc |= 0 if result["correct"] else 1
        rows.append((w, detail, result))
    if rows:
        print(json.dumps({"host": rows[0][1]["host"]}))
    for w, detail, result in rows:
        print(f"\n== {w}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={detail['failed_frac']:.4f} "
              f"docs={detail['docs']} triples={detail['triples']}")
        for name, m in result["metrics"].items():
            note = (f" ({detail['lookup_tail_percentile']})"
                    if name == "lookup_tail_ms" and "lookup_tail_percentile" in detail else "")
            val = "null" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {name:36s} {val:>14s} {m['unit']:10s} "
                  f"n={detail['samples'].get(name, 0)}{note}")
        for prob in detail.get("problems", [])[:10]:
            print(f"  PROBLEM {prob}")
    return rc


# --------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply corpus sizes (the tests use a toy scale)")
    p.add_argument("--all", action="store_true", help="run every workload, print a table")
    p.add_argument("--scale-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (os.path.isdir(os.path.join(ROOT, "dug_ray"))
            and os.path.isfile(os.path.join(ROOT, "__ray_entry__.py"))):
        _log(f"error: {ROOT} holds no dug_ray checkout (dug_ray/, __ray_entry__.py)")
        return 2
    if not args.all and not args.workload:
        p.error("--workload or --all is required")
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    # a terminated run still shuts Ray down and removes its files (finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.all:
        return run_all(args)

    from perfbench.hostinfo import fingerprint, reap_descendants
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": fingerprint(), "ray_temp_dir": _ray_temp_dir()}
    result = None
    rc = 0
    try:
        if args.scale_probe:
            result = scale_probe(args, work, detail)
        else:
            metrics = (traced_run if args.trace else timed_run)(args, work, detail)
            ok = not detail["problems"]
            units = PER_LAYER if args.trace else END_TO_END
            result = {"correct": ok, "attempted": detail["attempted"],
                      "failed": detail["failed"],
                      "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
            rc = 0 if ok else 1
    except Exception as e:  # noqa: BLE001 - reported, exit non-zero, no result
        import traceback
        traceback.print_exc()
        _log(f"error: {type(e).__name__}: {e}")
        result, rc = None, 1
    finally:
        with contextlib.suppress(Exception):
            import ray
            if ray.is_initialized():
                ray.shutdown()
        reap_descendants()
        remove_session_files(detail.get("ray_session_dir"))
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    if result is None:
        return rc
    if not args.scale_probe:
        for prob in detail["problems"][:20]:
            _log(f"PROBLEM {prob}")
        print(json.dumps(detail, default=str))
    print(json.dumps(result), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
