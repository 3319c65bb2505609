"""Tests of the benchmark itself: generators, output checks, a toy run.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import checks, workloads  # noqa: E402
from perfbench.run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("gen", [workloads.dense_corpus, workloads.sparse_corpus])
def test_generator_is_deterministic_per_seed(gen):
    a, b, c = gen(7, 300), gen(7, 300), gen(8, 300)
    assert a.schema == workloads.DOCS_SCHEMA
    assert a.equals(b)
    assert not a.equals(c)


def test_dense_profile():
    words = " ".join(workloads.dense_corpus(1, 2000)["text"].to_pylist()).split()
    lex = [w for w in words if w in workloads.LEXICON_TERMS]
    assert 0.44 < len(lex) / len(words) < 0.50
    assert 0.30 < lex.count("the") / len(lex) < 0.37


def test_sparse_profile():
    t = workloads.sparse_corpus(1, 200)
    lengths = [len(s.split()) for s in t["text"].to_pylist()]
    assert min(lengths) >= 200 and max(lengths) <= 600
    words = " ".join(t["text"].to_pylist()).split()
    share = sum(w in workloads.LEXICON_TERMS for w in words) / len(words)
    assert 0.015 < share < 0.025


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    sf = str(tmp_path_factory.mktemp("corpus"))
    workloads.write_corpus(workloads.dense_corpus(3, 150), sf)
    con = checks.oracle_connection(sf)
    assert checks.expect_triples(con) > 0
    return con


def _expected(con) -> pa.Table:
    cols = ", ".join(checks.TRIPLE_COLS)
    return con.execute(f"SELECT {cols} FROM expected_triples "
                       "ORDER BY subj, pred, obj").arrow()


def _write_parts(out: str, table: pa.Table, n_files: int = 3) -> None:
    """Split a sorted table by subject into ``n_files`` part files."""
    os.makedirs(out, exist_ok=True)
    subjects = sorted(set(table["subj"].to_pylist()))
    for i in range(n_files):
        mine = pa.array(subjects[i::n_files])
        pq.write_table(table.filter(pc.is_in(table["subj"], mine)),
                       os.path.join(out, f"part-{i:05d}.parquet"))


def _check(con, out: str, fast: bool) -> list[str]:
    """check_crawl_output with (fast) or without the pre-sorted oracle."""
    return checks.check_crawl_output(con, out, checks.expected_sorted(con) if fast else None)


@pytest.mark.parametrize("fast", [False, True])
def test_checks_accept_the_oracle_output(oracle, tmp_path, fast):
    _write_parts(str(tmp_path), _expected(oracle))
    assert _check(oracle, str(tmp_path), fast) == []


@pytest.mark.parametrize("fast", [False, True])
def test_checks_reject_a_dropped_triple(oracle, tmp_path, fast):
    t = _expected(oracle)
    _write_parts(str(tmp_path), t.slice(1))
    assert any("missing" in p for p in _check(oracle, str(tmp_path), fast))


@pytest.mark.parametrize("fast", [False, True])
def test_checks_reject_an_unsorted_part_file(oracle, tmp_path, fast):
    t = _expected(oracle)
    _write_parts(str(tmp_path), t, n_files=1)
    part = os.path.join(str(tmp_path), "part-00000.parquet")
    rows = pq.read_table(part)
    pq.write_table(pa.concat_tables([rows.slice(1), rows.slice(0, 1)]), part)
    problems = _check(oracle, str(tmp_path), fast)
    assert problems and all("strictly after" in p for p in problems)


@pytest.mark.parametrize("fast", [False, True])
def test_checks_reject_a_duplicate_triple(oracle, tmp_path, fast):
    t = _expected(oracle)
    _write_parts(str(tmp_path), t, n_files=1)
    part = os.path.join(str(tmp_path), "part-00000.parquet")
    rows = pq.read_table(part)
    pq.write_table(pa.concat_tables([rows.slice(0, 1), rows]), part)
    problems = _check(oracle, str(tmp_path), fast)
    assert any("not in the oracle" in p for p in problems)
    assert any("strictly after" in p for p in problems)


def test_checks_reject_a_wrong_lookup(oracle):
    subj = sorted(checks.subject_counts(oracle))[0]
    expected = checks.subject_rows(oracle, subj)
    assert expected.num_rows > 1
    assert checks.check_lookup(expected, expected) == []
    assert checks.check_lookup(expected.slice(1), expected)
    swapped = pa.concat_tables([expected.slice(1, 1), expected.slice(0, 1), expected.slice(2)])
    assert any("lookup row 0" in p for p in checks.check_lookup(swapped, expected))
    miss = checks.subject_rows(oracle, "MONDO:absent")
    assert checks.check_lookup(expected.slice(0, 0), miss) == []
    assert checks.check_lookup(expected.slice(0, 1), miss)


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *argv],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def test_toy_run_of_every_workload():
    p = _run("--all", "--seed", "5", "--seconds", "1", "--scale", "0.02")
    assert p.returncode == 0, p.stdout + p.stderr[-3000:]
    for w in WORKLOADS:
        assert f"== {w}: correct=True" in p.stdout
    for name in END_TO_END:
        assert p.stdout.count(f"  {name} ") == len(WORKLOADS)


def test_toy_traced_run_reports_every_layer():
    p = _run("--workload", "crawl_dense", "--seed", "5", "--trace", "1", "--scale", "0.02")
    assert p.returncode == 0, p.stderr[-3000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"] and set(result["metrics"]) == set(PER_LAYER)
    nulls = [k for k, v in result["metrics"].items() if v["value"] is None]
    assert nulls == []


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "index",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=120)
    assert p.returncode != 0 and p.stdout == ""
