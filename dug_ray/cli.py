"""CLI mirroring the reference's entry points (SURVEY.md §3.1-3.2):

    python -m dug_ray.cli crawl  <sf_dir> -o /tmp/out [-p dbgap] [--resumable]
    python -m dug_ray.cli search <sf_dir> -q "merge hash" [-k 20]
    python -m dug_ray.cli query  <sf_dir> -n kg_triples

``dug crawl`` (``/root/reference/src/dug/cli.py:111-118``) becomes the
streaming KG construction run with the sorted subject-partitioned triple
table as its sink; ``dug search`` (``cli.py:121-129``) becomes a token-match
top-k over the elements Dataset. This module OWNS a Ray session (guarded),
unlike the library/__ray_entry__ code."""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray(num_cpus: int | None):
    import ray
    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False,
                  "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # Ray Data's ReservationOpResourceAllocator reserves at least one whole
    # CPU for every operator of a plan. The crawl has four (read, the fused
    # map chain, the sort exchange, write_partition), so on four CPUs no
    # shared pool is left: the fused map runs its tasks one at a time while
    # the two operators behind the exchange barrier hold CPUs they cannot
    # use yet. Without the reservation the map runs at the session's full
    # width. Only the session this CLI owns is changed; a Dataset keeps the
    # context it was created under, so this precedes every pipeline.
    ctx.op_resource_reservation_enabled = False


class _CliError(Exception):
    """Clean user-facing CLI failure (unknown name etc.); rc=2."""


def _lookup(fn, name: str):
    """Resolve a registry/queries name; unknown names exit with a clean
    message. ONLY lookup failures get the one-line treatment — a KeyError
    raised deeper in pipeline code propagates as a real traceback."""
    try:
        return fn(name)
    except KeyError as e:
        raise _CliError(e.args[0] if e.args else str(e)) from None


def cmd_crawl(args) -> int:
    _ensure_ray(args.num_cpus)
    from dug_ray import registry
    parser = _lookup(registry.get_parser, args.parser)
    if args.resumable:
        from dug_ray.state.runner import run_resumable
        run_resumable(args.sf_dir, args.out, parser=parser,
                      parser_name=args.parser)
    else:
        from dug_ray.io import read_interleaved
        from dug_ray.pipelines import kg
        from dug_ray.stages.materialize import materialize_graph
        # a non-resumable crawl is a FRESH run: clear any previous output
        # (a completed manifest from an earlier corpus would otherwise
        # skip every bucket and serve the old triples)
        materialize_graph(kg.triples(read_interleaved(args.sf_dir), parser),
                          args.out, resume=False)
    # both branches end in materialize_graph, whose manifest records the
    # rows of every partition: the count needs no read-back of the table
    from dug_ray.state.manifest import PartitionManifest
    n = PartitionManifest(args.out).total_rows()
    print(json.dumps({"out": args.out, "triples": int(n)}))
    return 0


def cmd_search(args) -> int:
    """``dug search -t {variables|concepts|kg}`` analogue (reference
    ``cli.py:121-129``: one flag selects the ES index; here it selects the
    serving pipeline over the same constructed tables)."""
    _ensure_ray(args.num_cpus)
    if args.target in ("elements", "variables"):
        from dug_ray.pipelines.search import search_elements
        df = search_elements(args.sf_dir, args.query, k=args.k).to_pandas()
    elif args.target == "concepts":
        from dug_ray.queries import q_search_concepts
        df = q_search_concepts(args.sf_dir, k=args.k, query=args.query).to_pandas()
    else:  # kg: answers whose node names match a query term, best first
        from dug_ray.queries import q_search_kg
        df = q_search_kg(args.sf_dir).to_pandas()
        tset = {t.lower() for t in args.query.split()}
        # whole-token match over the pipe-joined node names (same semantics
        # as the elements/concepts targets — 'the' must not hit 'theophylline')
        import re
        hit = df["obj_names"].str.lower().map(
            lambda s: bool(tset.intersection(re.split(r"[| ]+", s))))
        df = (df[hit].sort_values(["n_edges", "answer_id"],
                                  ascending=[False, True]).head(args.k))
    print(df.to_string(index=False))
    return 0


def cmd_index(args) -> int:
    _ensure_ray(args.num_cpus)
    from dug_ray.pipelines.export import export_searchable
    counts = export_searchable(args.sf_dir, args.out)
    print(json.dumps({"out": args.out, **counts}))
    return 0


def cmd_curate(args) -> int:
    """End-to-end corpus curation (quality gates + decontamination +
    near-dup canonicalization + mixture sampling) -> partitioned parquet
    of the surviving docs WITH text — the artifact a pretraining run
    consumes. Multiple output files (one per block) keep the write
    parallel and the output resumable/splittable."""
    _ensure_ray(args.num_cpus)
    import glob
    import os
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from dug_ray.queries import q_curated_corpus
    ds = q_curated_corpus(args.sf_dir, keep_text=True)
    # write-to-tmp + atomic rename (the runner.py shard pattern): a rerun
    # or interrupted run never accumulates stale files into the artifact
    tmp = args.out.rstrip("/") + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    ds.write_parquet(tmp)
    if not glob.glob(os.path.join(tmp, "*.parquet")):
        # zero survivors: an empty-but-valid schema-bearing artifact
        pq.write_table(pa.table({"doc_id": pa.array([], pa.int64()),
                                 "source": pa.array([], pa.string()),
                                 "text": pa.array([], pa.string())}),
                       os.path.join(tmp, "part-empty.parquet"))
    shutil.rmtree(args.out, ignore_errors=True)
    os.rename(tmp, args.out)
    from ray.data import read_parquet
    n = read_parquet(args.out).count()
    print(json.dumps({"out": args.out, "docs_kept": int(n)}))
    return 0


def cmd_query(args) -> int:
    _ensure_ray(args.num_cpus)
    from dug_ray import queries
    if args.name not in queries.QUERIES:
        raise _CliError(f"unknown query '{args.name}'; available: "
                        + ", ".join(sorted(queries.QUERIES)))
    result = queries.QUERIES[args.name](args.sf_dir)
    df = result.to_pandas() if hasattr(result, "to_pandas") else result
    print(df.head(args.k).to_string(index=False))
    print(f"-- {len(df)} rows")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="dug_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("crawl", help="documents -> sorted triple table")
    c.add_argument("sf_dir")
    c.add_argument("-o", "--out", required=True)
    c.add_argument("-p", "--parser", default="dbgap")
    c.add_argument("--resumable", action="store_true")
    c.set_defaults(fn=cmd_crawl)

    s = sub.add_parser("search", help="token-match top-k serving search")
    s.add_argument("sf_dir")
    s.add_argument("-q", "--query", required=True)
    s.add_argument("-k", type=int, default=20)
    s.add_argument("-t", "--target", default="elements",
                   choices=["elements", "variables", "concepts", "kg"])
    s.set_defaults(fn=cmd_search)

    ix = sub.add_parser("index", help="export searchable element/concept/kg datasets")
    ix.add_argument("sf_dir")
    ix.add_argument("-o", "--out", required=True)
    ix.set_defaults(fn=cmd_index)

    cu = sub.add_parser("curate", help="quality+decontam+dedup+mixture -> curated parquet")
    cu.add_argument("sf_dir")
    cu.add_argument("-o", "--out", required=True)
    cu.set_defaults(fn=cmd_curate)

    q = sub.add_parser("query", help="run a registered pipeline by name")
    q.add_argument("sf_dir")
    q.add_argument("-n", "--name", required=True)
    q.add_argument("-k", type=int, default=20)
    q.set_defaults(fn=cmd_query)

    args = p.parse_args(argv)
    try:
        rc = args.fn(args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        rc = 2
    except FileNotFoundError as e:
        print(f"error: input not found: {e}", file=sys.stderr)
        rc = 2
    finally:
        import ray
        if ray.is_initialized():
            ray.shutdown()
    return rc


if __name__ == "__main__":
    sys.exit(main())
