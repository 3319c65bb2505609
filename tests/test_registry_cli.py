"""Registry (§2.10) + metrics (M12) + search (O2) behavior tests."""

import glob
import os
import re

import pytest

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# base tables of the test corpora; documents/embeddings are the paper's
_BASE_TABLES = {"region", "nation", "customer", "supplier", "part", "partsupp",
                "orders", "lineitem", "events", "documents", "embeddings"}
# registered queries whose oracle reads neither documents nor embeddings;
# each stays only while another test pins it, so this number only falls
_OFF_PAPER_MAX = 391


def _scanned_tables(sql: str) -> set[str]:
    """Base tables an oracle reads: the names after FROM / JOIN, with
    string literals and line comments stripped first."""
    sql = re.sub(r"'(?:[^']|'')*'", "''", sql)
    sql = re.sub(r"--[^\n]*", "", sql)
    return {t.lower() for t in re.findall(r"\b(?:FROM|JOIN)\s+([A-Za-z_]\w*)", sql, re.I)
            } & _BASE_TABLES


def _coverage_query_names() -> set[str]:
    """Backticked names in the ``query`` column of every COVERAGE.md table.
    Header-less continuation rows use the last header's column, counted
    from the right (implementation cells may contain a literal ``|``)."""
    lines = open(os.path.join(_REPO, "COVERAGE.md")).read().split("\n")
    names, from_right = set(), None
    for i, line in enumerate(lines):
        if not line.startswith("|") or line.startswith("|---"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if i + 1 < len(lines) and lines[i + 1].startswith("|---"):
            q = [k for k, c in enumerate(cells) if c.startswith("query")]
            from_right = len(cells) - q[0] if q else None
        elif from_right is not None and from_right <= len(cells):
            names |= set(re.findall(r"`([a-z][a-z0-9_]*)`", cells[-from_right]))
    return names


def test_registry_scope():
    """Every entry has an oracle; the queries whose oracle reads neither
    documents nor embeddings (TPC-H- or events-only analytics) cannot
    grow, and each is still pinned by another test (by its registry name
    or its ``q_`` function); every query COVERAGE.md names is registered."""
    from dug_ray.queries import ORACLES, QUERIES
    assert QUERIES.keys() == ORACLES.keys()
    off_paper = [n for n, sql in ORACLES.items()
                 if not _scanned_tables(sql) & {"documents", "embeddings"}]
    assert len(off_paper) <= _OFF_PAPER_MAX
    tests = "".join(open(p).read() for p in glob.glob(os.path.join(_REPO, "tests", "*.py"))
                    if not p.endswith(os.sep + "test_registry_cli.py"))
    unpinned = sorted(n for n in off_paper
                      if not re.search(rf"[\"']{n}[\"']|\bq_{n}\b", tests))
    assert unpinned == []
    covered = _coverage_query_names()
    assert len(covered) > 200
    assert sorted(covered - QUERIES.keys()) == []


def test_registry_lookup_and_error():
    from dug_ray import registry
    assert "dbgap" in registry.parser_names()
    assert "anvil" in registry.parser_names()
    with pytest.raises(KeyError, match="Cannot find parser"):
        registry.get_parser("nope")
    assert callable(registry.get_annotator("dictionary-ner"))


def test_custom_parser_registration(sf_smoke):
    from dug_ray import registry
    from dug_ray.stages.parse import parse_elements

    @registry.register_parser("custom-test")
    def custom(docs):
        return parse_elements(docs, data_type="dbgap")

    from dug_ray.io import read_interleaved
    out = registry.get_parser("custom-test")(read_interleaved(sf_smoke))
    assert out.count() > 0


def test_annotation_failures_complement(sf_smoke):
    """fails + elements-with-mentions partition the element set."""
    from dug_ray.io import read_interleaved
    from dug_ray.stages.annotate import annotate_elements
    from dug_ray.stages.metrics import annotation_failures
    from dug_ray.stages.parse import parse_elements
    els = parse_elements(read_interleaved(sf_smoke))
    n_elements = els.count()
    fails = set(annotation_failures(els).to_pandas()["element_id"])
    with_mentions = set(annotate_elements(els).to_pandas()["element_id"].unique())
    assert fails.isdisjoint(with_mentions)
    assert len(fails) + len(with_mentions) == n_elements


def test_norm_fails_is_xxx_only(sf_smoke):
    from dug_ray.io import read_interleaved
    from dug_ray.stages.annotate import annotate_elements
    from dug_ray.stages.metrics import normalization_failures
    from dug_ray.stages.parse import parse_elements
    out = normalization_failures(
        annotate_elements(parse_elements(read_interleaved(sf_smoke)))).to_pandas()
    assert list(out["curie"]) == ["XXX:900"]
    assert out["n_dropped"].iloc[0] > 0


def test_search_rank_contract(sf_smoke):
    import pandas as pd

    from dug_ray.io import read_interleaved
    from dug_ray.pipelines.search import search_elements
    from dug_ray.stages.parse import parse_elements
    df = search_elements(sf_smoke, "merge hash vector", k=10).to_pandas()
    assert len(df) == 10
    assert list(df["rank"]) == list(range(1, 11))
    # exact ranking contract incl. the element_id tie-break: compare the
    # full top-10 against a brute-force (score desc, element_id asc) sort
    terms = {"merge", "hash", "vector"}
    els = parse_elements(read_interleaved(sf_smoke)).to_pandas()
    exp = pd.DataFrame({
        "element_id": els["element_id"].astype(str),
        "score": els["element_desc"].map(lambda s: len(terms & set(s.split(" ")))),
    })
    exp = (exp[exp["score"] > 0]
           .sort_values(["score", "element_id"], ascending=[False, True],
                        kind="mergesort").head(10))
    assert list(df["element_id"]) == list(exp["element_id"])
    assert list(df["score"]) == list(exp["score"])


def test_mention_filter_hook(sf_smoke):
    """M7 filter slot: a registered filter runs inside the linker actor and
    drops the candidates it rejects; unset (the reference's default-off
    config) the output is unchanged."""
    from dug_ray import registry
    from dug_ray.io import read_interleaved
    from dug_ray.stages.annotate import ner_batch
    from dug_ray.stages.link import link_mentions
    from dug_ray.stages.parse import parse_elements

    @registry.register_mention_filter("drop-the")
    class DropThe:
        def __call__(self, df):
            return df[df["term"] != "the"]

    mentions = parse_elements(read_interleaved(sf_smoke)).map_batches(
        ner_batch, batch_format="pyarrow", batch_size=None)
    base = link_mentions(mentions).to_pandas()
    filtered = link_mentions(mentions, mention_filter="drop-the").to_pandas()
    assert (base["term"] == "the").any()
    assert not (filtered["term"] == "the").any()
    want = base[base["term"] != "the"]
    assert len(filtered) == len(want)

    with pytest.raises(KeyError, match="Cannot find mention filter"):
        registry.get_mention_filter("nope")

    # linked_mentions_ds must route link-only options (threshold,
    # mention_filter, ...) to the LINK stage instead of exploding
    # annotate_elements with an unexpected kwarg (the 'any option takes the
    # actor path' contract)
    from dug_ray.pipelines.kg import linked_mentions_ds
    via_pipeline = linked_mentions_ds(
        sf_smoke, mention_filter="drop-the").to_pandas()
    assert len(via_pipeline) == len(want)
    assert not (via_pipeline["term"] == "the").any()


def test_cli_search_targets(sf_smoke, capsys):
    """CLI parity for dug search -t: all three indices serve results.
    (cli.main owns ray teardown in standalone use; here the session-scoped
    fixture owns it, so drive the command functions directly.)"""
    import argparse

    from dug_ray import cli

    cases = [("concepts", "concept_id", "merge hash vector"),
             ("kg", "answer_id", "theophylline"),
             ("variables", "element_id", "merge hash vector")]
    for target, col, query in cases:
        args = argparse.Namespace(sf_dir=sf_smoke, query=query,
                                  k=5, target=target, num_cpus=None)
        assert cli.cmd_search(args) == 0
        out = capsys.readouterr().out
        assert col in out and len(out.strip().splitlines()) >= 2

    # the query is honored, not a module constant: a no-hit query is empty
    args = argparse.Namespace(sf_dir=sf_smoke, query="zzzznope",
                              k=5, target="concepts", num_cpus=None)
    assert cli.cmd_search(args) == 0
    assert "Empty DataFrame" in capsys.readouterr().out  # no fabricated hits


def test_cli_session_settings():
    """The session the CLI owns runs without Ray Data's per-operator CPU
    reservation (it serializes the crawl's pre-exchange map on a small
    host) and without progress bars."""
    from ray.data import DataContext

    from dug_ray import cli

    ctx = DataContext.get_current()
    saved = ctx.op_resource_reservation_enabled
    try:
        ctx.op_resource_reservation_enabled = True
        cli._ensure_ray(None)
        assert DataContext.get_current().op_resource_reservation_enabled is False
        assert DataContext.get_current().enable_progress_bars is False
    finally:
        ctx.op_resource_reservation_enabled = saved


def test_cli_curate(sf_smoke, capsys, tmp_path):
    """curate writes the surviving docs WITH text as parquet, int64 ids
    (the pandas bucket-merge float widening must not leak to the sink),
    and the kept set matches the oracle-checked id/source projection."""
    import argparse
    import json

    import pyarrow.parquet as pq

    from dug_ray import cli
    from dug_ray.queries import q_curated_corpus

    out = str(tmp_path / "curated")
    args = argparse.Namespace(sf_dir=sf_smoke, out=out, num_cpus=None)
    assert cli.cmd_curate(args) == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    t = pq.read_table(out)
    assert set(t.schema.names) == {"doc_id", "source", "text"}
    assert str(t.schema.field("doc_id").type) == "int64"
    assert t.num_rows == info["docs_kept"] > 0
    want = set(q_curated_corpus(sf_smoke).to_pandas()["doc_id"])
    # num_rows vs len(want) pins multiplicity: no doc duplicated or dropped
    assert t.num_rows == len(want)
    assert set(t.column("doc_id").to_pylist()) == want
    assert not any(v is None or v == "" for v in t.column("text").to_pylist())

    # rerun into the SAME dir must replace, not accumulate (atomic tmp+rename)
    assert cli.cmd_curate(args) == 0
    info2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info2["docs_kept"] == info["docs_kept"]
    assert pq.read_table(out).num_rows == len(want)


def test_entry_point_plugin_registration(tmp_path, monkeypatch):
    """A synthetic installed distribution declaring a [dug_ray] entry point
    registers a parser by name without editing dug_ray — mirrors the
    reference's pm.load_setuptools_entrypoints('dug')
    (core/__init__.py:29-35)."""
    from dug_ray import registry

    (tmp_path / "my_dug_plugin.py").write_text(
        "def define_parsers(parser_dict):\n"
        "    parser_dict['pytest-plugin-parser'] = lambda ds: ds\n"
        "def define_annotators(annotator_dict):\n"
        "    annotator_dict['pytest-plugin-annotator'] = object\n")
    di = tmp_path / "my_dug_plugin-0.1.dist-info"
    di.mkdir()
    (di / "METADATA").write_text(
        "Metadata-Version: 2.1\nName: my-dug-plugin\nVersion: 0.1\n")
    (di / "entry_points.txt").write_text(
        "[dug_ray]\nmyplug = my_dug_plugin\n")
    monkeypatch.syspath_prepend(str(tmp_path))

    assert registry.load_entry_point_plugins() >= 1
    parser = registry.get_parser("pytest-plugin-parser")
    assert callable(parser)
    assert registry.get_annotator("pytest-plugin-annotator") is object
    # cleanup so other tests see the default registry
    registry._PARSERS.pop("pytest-plugin-parser", None)
    registry._ANNOTATORS.pop("pytest-plugin-annotator", None)
