"""Expected outputs from the DuckDB oracles, and the output checks.

The expectations come from ``__ray_entry__.oracle_sql()``: ``kg_triples``
for a crawl, ``concepts`` / ``element_terms`` / ``kg_answers`` for an index
(the export adds ``doc_id = subj || '_' || answer_id`` to the kg rows).
Only data files are compared, as multisets in both directions; the
manifest and ``_done-*`` sidecars hold wall-clock seconds and are never
compared. Every check returns a list of problems (empty = correct).
"""

from __future__ import annotations

import functools
import glob
import os

import duckdb
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

TRIPLE_COLS = ["subj", "pred", "obj", "obj_name", "source_query"]
TRIPLE_SCHEMA = pa.schema([(c, pa.string()) for c in TRIPLE_COLS])
INDEX_PARTS = {"elements": "element_terms", "concepts": "concepts", "kg": "kg_answers"}


def _oracle_sql() -> dict[str, str]:
    import __ray_entry__
    return __ray_entry__.oracle_sql()


def oracle_connection(sf_dir: str) -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    return con


def expect_triples(con: duckdb.DuckDBPyConnection) -> int:
    """Materialize ``expected_triples`` (the kg_triples oracle); row count."""
    con.execute("CREATE OR REPLACE TABLE expected_triples AS "
                + _oracle_sql()["kg_triples"])
    return con.execute("SELECT count(*) FROM expected_triples").fetchone()[0]


def expect_index(con: duckdb.DuckDBPyConnection) -> dict[str, int]:
    """Materialize ``expected_<part>`` for the three export datasets."""
    sql = _oracle_sql()
    counts = {}
    for part, name in INDEX_PARTS.items():
        body = sql[name]
        if part == "kg":
            body = f"SELECT *, subj || '_' || answer_id AS doc_id FROM ({body})"
        con.execute(f"CREATE OR REPLACE TABLE expected_{part} AS {body}")
        counts[part] = con.execute(f"SELECT count(*) FROM expected_{part}").fetchone()[0]
    return counts


def _multiset_diff(con, actual: str, expected_table: str, cols: list[str]) -> list[str]:
    """Rows of ``expected_table`` missing from the relation ``actual`` and
    rows of ``actual`` not in it, counted with multiplicity."""
    sel = ", ".join(f'"{c}"' for c in cols)
    missing = con.execute(f"SELECT count(*) FROM (SELECT {sel} FROM {expected_table} "
                          f"EXCEPT ALL SELECT {sel} FROM {actual})").fetchone()[0]
    extra = con.execute(f"SELECT count(*) FROM (SELECT {sel} FROM {actual} "
                        f"EXCEPT ALL SELECT {sel} FROM {expected_table})").fetchone()[0]
    out = []
    if missing:
        out.append(f"{missing} expected rows missing from the output")
    if extra:
        out.append(f"{extra} output rows not in the oracle")
    return out


def _file_list(paths: list[str]) -> str:
    return "[" + ", ".join(f"'{p}'" for p in paths) + "]"


def part_files(out_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(out_dir, "part-*.parquet")))


def order_violations(t: pa.Table) -> int:
    """Rows of ``t`` that are not strictly after the row before them in
    (subj, pred, obj) order (an out-of-order row or a duplicate key)."""
    if t.num_rows < 2:
        return 0
    cols = [t[c].combine_chunks().cast(pa.string()) for c in ("subj", "pred", "obj")]
    cur = [c.slice(1) for c in cols]
    prev = [c.slice(0, t.num_rows - 1) for c in cols]
    after = pc.greater(cur[2], prev[2])
    for i in (1, 0):
        after = pc.or_(pc.greater(cur[i], prev[i]),
                       pc.and_(pc.equal(cur[i], prev[i]), after))
    return t.num_rows - 1 - pc.sum(pc.fill_null(after, False).cast(pa.int64())).as_py()


def sorted_triples(t: pa.Table) -> pa.Table:
    """``t``'s triple columns as strings, sorted by every column: two such
    tables are equal exactly when the inputs are equal as multisets."""
    return t.select(TRIPLE_COLS).cast(TRIPLE_SCHEMA).sort_by(
        [(c, "ascending") for c in TRIPLE_COLS]).combine_chunks()


def expected_sorted(con: duckdb.DuckDBPyConnection) -> pa.Table:
    """The ``expected_triples`` oracle table, ready for ``check_crawl_output``."""
    return sorted_triples(con.execute("SELECT * FROM expected_triples").arrow())


def check_crawl_output(con: duckdb.DuckDBPyConnection, out_dir: str,
                       expected: pa.Table | None = None) -> list[str]:
    """The part files hold exactly the oracle triples (as a multiset), and
    each file is strictly increasing in (subj, pred, obj): sorted, with no
    duplicate key. ``expected`` (``expected_sorted(con)``, optional) makes
    the multiset compare a sorted-table compare; only a mismatch then runs
    the DuckDB diff that counts the differing rows."""
    parts = part_files(out_dir)
    if not parts:
        n = con.execute("SELECT count(*) FROM expected_triples").fetchone()[0]
        return [f"no part files in {out_dir}"] if n else []
    problems, tables = [], []
    for f in parts:
        t = pq.read_table(f)
        bad = order_violations(t)
        if bad:
            problems.append(f"{os.path.basename(f)}: {bad} rows not strictly after "
                            "their predecessor in (subj, pred, obj) order")
        missing = set(TRIPLE_COLS) - set(t.column_names)
        if missing:
            return problems + [f"{os.path.basename(f)}: columns {sorted(missing)} missing"]
        tables.append(t.select(TRIPLE_COLS).cast(TRIPLE_SCHEMA))
    actual = pa.concat_tables(tables)
    if expected is not None and sorted_triples(actual).equals(expected):
        return problems
    con.register("actual_triples", actual)
    try:
        return problems + _multiset_diff(con, "actual_triples", "expected_triples",
                                         TRIPLE_COLS)
    finally:
        con.unregister("actual_triples")


def check_index_output(con: duckdb.DuckDBPyConnection, out_dir: str) -> list[str]:
    """Each export dataset holds exactly its oracle rows (as a multiset)."""
    problems = []
    for part in INDEX_PARTS:
        files = sorted(glob.glob(os.path.join(out_dir, part, "*.parquet")))
        cols = [d[0] for d in con.execute(f"SELECT * FROM expected_{part} LIMIT 0").description]
        n_expected = con.execute(f"SELECT count(*) FROM expected_{part}").fetchone()[0]
        if not files:
            if n_expected:
                problems.append(f"{part}: no data files")
            continue
        have = set(pq.read_schema(files[0]).names)
        if not set(cols) <= have:
            problems.append(f"{part}: columns {sorted(set(cols) - have)} missing")
            continue
        problems += [f"{part}: {p}" for p in _multiset_diff(
            con, f"read_parquet({_file_list(files)}, union_by_name=true)",
            f"expected_{part}", cols)]
    return problems


def index_triples(out_dir: str) -> int:
    """KG triples the export encodes: one annotates triple per (element,
    concept) pair in ``elements/`` plus ``n_edges`` expansion triples per
    answer in ``kg/``."""
    con = duckdb.connect()
    el = _file_list(sorted(glob.glob(os.path.join(out_dir, "elements", "*.parquet"))))
    kg = _file_list(sorted(glob.glob(os.path.join(out_dir, "kg", "*.parquet"))))
    pairs = con.execute(f"SELECT coalesce(sum(len(string_split(concepts, '|'))), 0) "
                        f"FROM read_parquet({el})").fetchone()[0]
    edges = con.execute(f"SELECT coalesce(sum(n_edges), 0) FROM read_parquet({kg})").fetchone()[0]
    return int(pairs + edges)


def subject_counts(con: duckdb.DuckDBPyConnection) -> dict[str, int]:
    return dict(con.execute("SELECT subj, count(*) FROM expected_triples "
                            "GROUP BY subj ORDER BY subj").fetchall())


def subject_rows(con: duckdb.DuckDBPyConnection, subj: str) -> pa.Table:
    """The oracle's rows for ``subj`` in (pred, obj) order."""
    cols = ", ".join(TRIPLE_COLS)
    return con.execute(f"SELECT {cols} FROM expected_triples WHERE subj = ? "
                       "ORDER BY pred, obj", [subj]).arrow().cast(TRIPLE_SCHEMA)


def check_lookup(result: pa.Table, expected: pa.Table) -> list[str]:
    """A lookup result equals ``expected`` row for row."""
    if result.num_rows != expected.num_rows:
        return [f"lookup returned {result.num_rows} rows, oracle has {expected.num_rows}"]
    got = result.select(TRIPLE_COLS).cast(TRIPLE_SCHEMA)
    if got.equals(expected):
        return []
    same = functools.reduce(pc.and_, [pc.fill_null(pc.equal(got[c], expected[c]), False)
                                      for c in TRIPLE_COLS])
    first = pc.index(same, False).as_py()
    return [f"lookup row {first} is {got.slice(first, 1).to_pylist()}, "
            f"oracle has {expected.slice(first, 1).to_pylist()}"]
