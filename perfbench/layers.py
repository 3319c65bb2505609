"""Per-layer measurements for the traced run.

Each layer's public function runs on the materialized output of the layer
before it, inside a span, so Ray Data's operator stats for that execution
belong to that layer alone (in a real job Ray fuses the map stages into one
operator). ``busy_s`` is the layer's task seconds summed over CPUs. If a
layer's function is gone or fails, its metrics read null and the error is
returned; the run goes on.
"""

from __future__ import annotations

import functools
import glob
import importlib
import inspect
import os
import shutil
import statistics
from dataclasses import dataclass, field

from perfbench.tracing import EXCHANGE_OP, counting_reads

# busy metrics of the layers each job kind runs (ray.overhead_s subtracts
# their sum, spread over the CPUs, from the job's wall time)
JOB_LAYERS = {
    "crawl": ["io.read.busy_s", "io.spanify.busy_s", "parse.busy_s", "annotate.busy_s",
              "link.busy_s", "expand.busy_s", "shuffle.bucket.busy_s",
              "materialize.exchange_s", "materialize.write.busy_s"],
    "index": ["io.read.busy_s", "io.spanify.busy_s", "parse.busy_s", "annotate.busy_s",
              "link.busy_s", "canonicalize.partial.busy_s", "canonicalize.exchange_s",
              "canonicalize.element_terms.busy_s"],
}
LOOKUP_REPEATS = 3


@dataclass
class Context:
    sf_dir: str
    work: str
    tracer: object
    stats: object
    tokens: int
    keys: list
    table_dir: str | None = None
    data: dict = field(default_factory=dict)


def _ratio(a, b):
    return a / b if a is not None and b else None


def measure(ctx: Context) -> tuple[dict, dict]:
    """Run every layer step; (metrics, errors by step). Each step imports
    the program module it measures, so a module that is gone only nulls
    that step's metrics."""
    def mod(name):
        return importlib.import_module(f"dug_ray.{name}")

    m: dict = {}
    errors: dict = {}
    d = ctx.data
    rs, tr = ctx.stats, ctx.tracer

    def step(name, fn):
        try:
            fn(name)
        except Exception as e:  # noqa: BLE001 - the layer's metrics stay null
            errors[name] = f"{type(e).__name__}: {e}"

    def run(name, make):
        """Materialize ``make()`` inside span ``name``; (dataset, busy s)."""
        with tr.span(name):
            ds = make().materialize()
        return ds, rs.busy_s(name)

    def read(name):
        d["docs"], m["io.read.busy_s"] = run(name, lambda: mod("io").read_documents(ctx.sf_dir))

    def spanify(name):
        dio = mod("io")
        d["flat"], m["io.spanify.busy_s"] = run(
            name, lambda: dio.flatten_spans(dio.spanify(d["docs"])))
        m["io.spans"] = d["flat"].count()

    def parse_(name):
        fn = functools.partial(mod("stages.parse").elements_from_spans, data_type="dbgap")
        d["elements"], m["parse.busy_s"] = run(name, lambda: d["flat"].map_batches(
            fn, batch_format="pyarrow", batch_size=None))
        m["parse.elements"] = d["elements"].count()

    def annotate_(name):
        d["mentions"], m["annotate.busy_s"] = run(name, lambda: d["elements"].map_batches(
            mod("stages.annotate").ner_batch, batch_format="pyarrow", batch_size=None))
        m["annotate.tokens"] = ctx.tokens
        m["annotate.mentions"] = d["mentions"].count()
        m["annotate.hit_ratio"] = _ratio(m["annotate.mentions"], ctx.tokens)

    def link_(name):
        d["linked"], m["link.busy_s"] = run(name, lambda: d["mentions"].map_batches(
            mod("stages.link").link_batch, batch_format="pyarrow", batch_size=None))
        m["link.linked"] = d["linked"].count()
        m["link.keep_ratio"] = _ratio(m["link.linked"], m.get("annotate.mentions"))
        for k in ("docs", "flat", "elements", "mentions"):
            d.pop(k, None)

    def expand_(name):
        d["triples"], m["expand.busy_s"] = run(
            name, lambda: mod("stages.expand").triples_partial(d["linked"]))
        m["expand.rows_out"] = d["triples"].count()

    def bucket(name):
        materialize = mod("stages.materialize")
        layout = {k: v.default for k, v in
                  inspect.signature(materialize.materialize_graph).parameters.items()
                  if k in ("num_buckets", "salt")}
        _, m["shuffle.bucket.busy_s"] = run(
            name, lambda: materialize.add_subj_bucket(d["triples"], **layout))

    def write(name):
        out = os.path.join(ctx.work, "layer_table")
        with tr.span(name):
            mod("stages.materialize").materialize_graph(d["triples"], out, resume=False)
        ops = rs.ops(name)
        ex = [o for o in ops if EXCHANGE_OP.search(o["name"])]
        ex_map = [o for o in ex if "map" in o["name"].lower()] or ex   # the sending side
        m["materialize.exchange_s"] = sum(o["wall_s"] or 0 for o in ex) if ex else None
        m["materialize.exchange_bytes"] = sum(o["bytes"] or 0 for o in ex_map) if ex else None
        m["materialize.exchange_blocks"] = sum(o["blocks"] or 0 for o in ex_map) if ex else None
        m["materialize.wait_s"] = sum(o["wait_s"] for o in ops) if ops else None
        m["materialize.write.busy_s"] = rs.busy_s(name, "write")
        m["materialize.spill_bytes"] = rs.spilled(name)
        import pyarrow.parquet as pq
        rows = [pq.read_metadata(f).num_rows for f in
                sorted(glob.glob(os.path.join(out, "part-*.parquet")))]
        m["materialize.partitions"] = len(rows)
        m["materialize.skew"] = max(rows) / statistics.median(rows) if rows else None
        m["materialize.dedup_ratio"] = _ratio(sum(rows), m.get("expand.rows_out"))
        ctx.table_dir = out
        d.pop("triples", None)

    def lookup(name):
        n = returned = 0
        materialize = mod("stages.materialize")
        with tr.span(name), counting_reads() as tally:
            for _ in range(LOOKUP_REPEATS):
                for key in ctx.keys:
                    returned += materialize.subject_lookup(ctx.table_dir, key).num_rows
                    n += 1
        m["lookup.files"] = tally["files"] / n
        m["lookup.bytes_read"] = tally["bytes"] / n
        m["lookup.scan_ratio"] = _ratio(returned, tally["rows"])

    def partial(name):
        _, m["canonicalize.partial.busy_s"] = run(name, lambda: d["linked"].map_batches(
            mod("stages.canonicalize").partial_concepts, batch_format="pyarrow",
            batch_size=None))

    def concepts(name):
        d["concepts"], _ = run(
            name, lambda: mod("stages.canonicalize").build_concepts(d["linked"]))
        ex = [o for o in rs.ops(name) if EXCHANGE_OP.search(o["name"])]
        m["canonicalize.exchange_s"] = sum(o["wall_s"] or 0 for o in ex) if ex else None
        m["canonicalize.pairs"] = d["concepts"].sum("n_elements")

    def element_terms(name):
        _, m["canonicalize.element_terms.busy_s"] = run(
            name, lambda: mod("stages.canonicalize").element_terms(d["linked"], d["concepts"]))

    def cache_and_export(name):
        # a directory of its own: the single-slot session cache is cold
        sf = os.path.join(ctx.work, "export_corpus")
        os.makedirs(sf, exist_ok=True)
        shutil.copyfile(os.path.join(ctx.sf_dir, "documents.parquet"),
                        os.path.join(sf, "documents.parquet"))
        with tr.span("kg.linked_cache"):
            mod("pipelines.kg").linked_mentions_cached(sf)
        m["kg.linked_cache_s"] = tr.duration("kg.linked_cache")
        with tr.span(name):
            counts = mod("pipelines.export").export_searchable(
                sf, os.path.join(ctx.work, "export_out"))
        m["export.write_s"] = tr.duration(name)
        m["export.rows"] = sum(counts.values())

    for name, fn in [("io.read", read), ("io.spanify", spanify), ("parse", parse_),
                     ("annotate", annotate_), ("link", link_), ("expand", expand_),
                     ("shuffle.bucket", bucket), ("materialize", write), ("lookup", lookup),
                     ("canonicalize.partial", partial), ("canonicalize.concepts", concepts),
                     ("canonicalize.element_terms", element_terms),
                     ("export", cache_and_export)]:
        step(name, fn)
    d.clear()
    return m, errors
