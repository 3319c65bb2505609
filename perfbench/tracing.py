"""Tracing for the per-layer run: spans, Ray Data operator stats, probes.

Spans are recorded by the benchmark around its own calls into each layer
(name, start, end, parent, run id) and kept in memory. Ray Data's
per-operator stats of every execution are captured with an execution
callback and attributed to the innermost open span. Stages that Ray fuses
into one operator are separated by running each layer's public function
on the materialized output of the previous one.
"""

from __future__ import annotations

import contextlib
import re
import time
import uuid

EXCHANGE_OP = re.compile(r"sort|shuffle|aggregate|repartition|groupby|exchange", re.I)


class Tracer:
    """Nested spans (name, start, end, parent, run id), kept in memory."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self.spans[self._stack[-1]]["name"] if self._stack else None,
               "run": self.run_id}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]]["name"] if self._stack else None

    def duration(self, name: str) -> float | None:
        d = [s["end"] - s["start"] for s in self.spans if s["name"] == name and s["end"]]
        return sum(d) if d else None


def _op_record(op, metrics: dict) -> dict:
    def agg(d):
        return d.get("sum") if d else None
    blocks = re.search(r"(\d+) blocks produced", op.block_execution_summary_str or "")
    return {"name": op.operator_name, "wall_s": agg(op.wall_time), "cpu_s": agg(op.cpu_time),
            "rows": agg(op.output_num_rows), "bytes": agg(op.output_size_bytes),
            "blocks": int(blocks.group(1)) if blocks else None,
            "span_s": op.time_total_s, **metrics}


class RayStats:
    """Ray Data execution callback: one record per finished execution,
    tagged with the tracer's innermost open span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.executions: list[dict] = []
        self.error: str | None = None
        self._cb = None
        self._seen: set = set()

    def install(self) -> bool:
        try:
            from ray.data import DataContext
            from ray.data._internal.execution.execution_callback import (
                ExecutionCallback, add_execution_callback)
        except ImportError as e:
            self.error = f"no execution callback API: {e}"
            return False
        outer = self

        class _Callback(ExecutionCallback):
            def after_execution_succeeds(self, executor):
                outer._record(executor)

        self._cb = _Callback()
        add_execution_callback(self._cb, DataContext.get_current())
        return True

    def uninstall(self) -> None:
        if self._cb is None:
            return
        from ray.data import DataContext
        from ray.data._internal.execution.execution_callback import remove_execution_callback
        remove_execution_callback(self._cb, DataContext.get_current())
        self._cb = None

    def _record(self, executor) -> None:
        try:
            per_op = {}
            for op in getattr(executor, "_topology", {}) or {}:
                m = op.metrics.as_dict()
                per_op[op.name] = {
                    "wait_s": float(m.get("task_submission_backpressure_time", 0) or 0)
                    + float(m.get("task_output_backpressure_time", 0) or 0),
                    "spilled": int(m.get("obj_store_mem_spilled", 0) or 0)}
            summary = executor.get_stats().to_summary()
            ops, todo, spilled = [], [summary], 0
            while todo:
                s = todo.pop()
                spilled = max(spilled, int(getattr(s, "dataset_bytes_spilled", 0) or 0))
                for op in s.operators_stats:
                    extra = per_op.get(op.operator_name, {"wait_s": 0.0, "spilled": 0})
                    rec = _op_record(op, extra)
                    # the summary repeats the stats of materialized inputs
                    # (its parents); keep each operator run once
                    key = (rec["name"], rec["wall_s"], rec["rows"], rec["bytes"])
                    if key not in self._seen:
                        self._seen.add(key)
                        ops.append(rec)
                todo.extend(s.parents or [])
            self.executions.append({"span": self.tracer.current(), "ops": ops,
                                    "spilled": spilled})
        except Exception as e:  # noqa: BLE001 - stats are best effort
            self.error = f"{type(e).__name__}: {e}"

    def ops(self, span: str) -> list[dict]:
        return [op for ex in self.executions if ex["span"] == span for op in ex["ops"]]

    def busy_s(self, span: str, pattern: str | None = None) -> float | None:
        """Task seconds of the operators run under ``span`` (optionally only
        those whose name matches ``pattern``)."""
        ops = [o for o in self.ops(span) if o["wall_s"] is not None
               and (pattern is None or re.search(pattern, o["name"], re.I))]
        return sum(o["wall_s"] for o in ops) if ops else None

    def spilled(self, span: str) -> int:
        ex = [e for e in self.executions if e["span"] == span]
        return sum(e["spilled"] for e in ex) + sum(o["spilled"] for o in self.ops(span))


@contextlib.contextmanager
def counting_reads():
    """Count the parquet files, bytes and rows read through
    ``pyarrow.parquet.read_table`` while the block runs."""
    import os

    import pyarrow.parquet as pq
    real = pq.read_table
    tally = {"files": 0, "bytes": 0, "rows": 0}

    def read_table(source, *args, **kwargs):
        t = real(source, *args, **kwargs)
        tally["files"] += 1
        if isinstance(source, (str, os.PathLike)) and os.path.isfile(source):
            tally["bytes"] += os.path.getsize(source)
        tally["rows"] += t.num_rows
        return t

    pq.read_table = read_table
    try:
        yield tally
    finally:
        pq.read_table = real


def host_probe(ncpu: int, seconds: float = 0.4) -> float:
    """Parallel speedup of a fixed numpy workload: throughput of ``ncpu``
    worker processes over that of this process alone."""
    import multiprocessing as mp
    _numpy_work(0.05)
    t0 = time.perf_counter()
    _numpy_work(seconds)
    one = time.perf_counter() - t0
    with mp.get_context("spawn").Pool(ncpu) as pool:
        pool.map(_numpy_work, [0.0] * ncpu)          # workers up and imported
        t0 = time.perf_counter()
        pool.map(_numpy_work, [seconds] * ncpu, chunksize=1)
        many = time.perf_counter() - t0
    return ncpu * one / many


def _numpy_work(seconds: float) -> None:
    """About ``seconds`` of single-threaded numpy work, fixed in size."""
    import numpy as np
    a = np.random.default_rng(0).random(1_000_000)
    for _ in range(int(seconds * 100)):
        a = np.sqrt(a * a + 1.0) - 0.5
