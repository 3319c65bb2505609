"""``dug_ray crawl`` and ``dug_ray index`` over tiny malformed corpora.

The counts each command reports are checked against the DuckDB oracles of
``__ray_entry__.oracle_sql()`` run over the same ``documents.parquet``.
Tokens split on single spaces only (the oracles' ``string_split(text, ' ')``),
so tabs and newlines stay inside a token and runs of spaces make empty
tokens."""

import argparse
import json
import os

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import __ray_entry__
from dug_ray import cli

CORPORA = {
    "no-hit": ["table data value", "column row", "café 数据 naïve", "a b c d e f g h i j"],
    "empty-text": ["", "the merge hash", "", "scan sort the join spark filter vector stream"],
    "non-ascii": ["café the merge", "数据 hash the 🙂", "naïve the scan query", "élan the"],
    "whitespace": ["the  merge", "  hash\tsort", "scan\nthe query", "   ",
                   "filter \t stream  the", "\tthe\n"],
    "mixed-case": ["The merge", "HASH the", "Naïve SCAN query"],
}

# The parse stage lowercases element descriptions before NER (as the dbGaP
# parser does); the oracles split the raw text, so a capitalised lexicon
# term links in the engine but not in the oracle.
CASE_DIVERGES = pytest.mark.xfail(
    strict=True, reason="engine lowercases descriptions before NER, the oracles do not")


def write_corpus(texts, sf_dir):
    os.makedirs(sf_dir)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array([f"src{i % 2}" for i in range(len(texts))]),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), os.path.join(sf_dir, "documents.parquet"))


def oracle_count(sf_dir, name):
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    sql = __ray_entry__.oracle_sql()[name]
    return con.execute(f"SELECT count(*) FROM ({sql})").fetchone()[0]


def run(fn, capsys, **kw):
    assert fn(argparse.Namespace(num_cpus=None, parser="dbgap", resumable=False, **kw)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("corpus", [
    pytest.param(c, marks=CASE_DIVERGES) if c == "mixed-case" else c for c in CORPORA])
def test_crawl_and_index_counts_match_oracles(corpus, tmp_path, capsys):
    sf_dir = str(tmp_path / "sf")
    write_corpus(CORPORA[corpus], sf_dir)
    crawl = run(cli.cmd_crawl, capsys, sf_dir=sf_dir, out=str(tmp_path / "kg"))
    assert crawl["triples"] == oracle_count(sf_dir, "kg_triples")
    index = run(cli.cmd_index, capsys, sf_dir=sf_dir, out=str(tmp_path / "index"))
    assert (index["elements"], index["concepts"], index["kg"]) == tuple(
        oracle_count(sf_dir, name) for name in ("element_terms", "concepts", "kg_answers"))
    # every corpus but the no-hit one links at least one mention
    assert (crawl["triples"] == 0) == (corpus == "no-hit")
