"""End-to-end KG pipeline tests against a pure-Python oracle.

Mirrors the reference's crawler tests (``/root/reference/tests/unit/
test_crawler.py:23-101``): annotate -> concepts built -> expansion triples,
with exact-set equality instead of the P/R bound (the bound is for the
10^12-doc run; at test scale we demand equality)."""

import os
import subprocess
import sys

import pandas as pd
import pyarrow.parquet as pq
import pytest

from dug_ray import ontology
from dug_ray.pipelines import kg
from dug_ray.stages.canonicalize import build_concepts
from dug_ray.stages.expand import cast_elements_from_triples


def python_oracle_mentions(sf_dir):
    """Pure-Python reimplementation of parse+NER+link over the raw table."""
    raw = pq.read_table(f"{sf_dir}/documents.parquet").to_pandas()
    lex = {}
    for term, curie, label, cat, score in ontology.NER_LEXICON:
        lex.setdefault(term, []).append((curie, label, cat, score))
    norm = {c: (p, l, t) for c, p, l, t in ontology.NORMALIZER_MAP}
    green = set(ontology.ONTOLOGY_GREENLIST)
    rows = []
    for _, r in raw.iterrows():
        for pos, w in enumerate(r["text"].split(" "), start=1):
            for curie, label, cat, score in lex.get(w, []):
                if score < ontology.LINKER_SCORE_THRESHOLD:
                    continue
                # a curie with NO normalizer row takes the same rescue path
                # as an explicit-None row (link.py norm_map.get semantics)
                pref, plabel, ptype = norm.get(curie, (None, None, None))
                if pref is None:
                    if curie.split(":")[0] not in green:
                        continue
                    pref, plabel, ptype = curie, label, cat
                chunk = (pos - 1) // 8
                offset = chunk + chunk // 2
                rows.append({
                    "doc_id": str(r["doc_id"]),
                    "element_id": f"{r['doc_id']}-s{offset}",
                    "tok_pos": pos, "term": w, "curie": curie,
                    "canonical_curie": pref, "name": plabel, "type": ptype,
                })
    return pd.DataFrame(rows)


@pytest.fixture(scope="module")
def oracle(sf_smoke):
    return python_oracle_mentions(sf_smoke)


@pytest.fixture(scope="module")
def linked_df(sf_smoke):
    return kg.linked_mentions_ds(sf_smoke).to_pandas()


def test_linked_mentions_exact(linked_df, oracle):
    got = linked_df[["doc_id", "element_id", "tok_pos", "term", "curie",
                     "canonical_curie", "name", "type"]].sort_values(
        ["doc_id", "tok_pos", "curie"]).reset_index(drop=True)
    want = oracle[got.columns.tolist()].sort_values(
        ["doc_id", "tok_pos", "curie"]).reset_index(drop=True)
    got["doc_id"] = got["doc_id"].astype(str)
    got["tok_pos"] = got["tok_pos"].astype("int64")
    pd.testing.assert_frame_equal(got, want)


def test_dropped_paths(linked_df):
    # sub-threshold candidate (scan -> UMLS:C004 @0.55) never links
    assert "UMLS:C004" not in set(linked_df["curie"])
    assert "HP:0000004" not in set(linked_df["canonical_curie"])
    # non-greenlist normalization failure dropped
    assert "XXX:900" not in set(linked_df["curie"])
    # greenlist rescue keeps PATO with raw id
    pato = linked_df[linked_df["curie"] == "PATO:0000100"]
    assert len(pato) > 0
    assert (pato["canonical_curie"] == "PATO:0000100").all()
    assert (pato["name"] == "batch quality").all()


def test_concept_merge(sf_smoke, oracle):
    concepts = build_concepts(kg.linked_mentions_ds(sf_smoke)).to_pandas()
    assert set(concepts["concept_id"]) == set(oracle["canonical_curie"])
    # MONDO:0000001 merges two raw identifiers (slow + query)
    m1 = concepts[concepts["concept_id"] == "MONDO:0000001"].iloc[0]
    assert m1["identifiers"] == "MESH:D003|UMLS:C001"
    terms = set(m1["search_terms"].split("|"))
    assert {"slow", "query", "slow fever syn", "query fever syn"} <= terms
    # first-wins: name/type from the global min (doc_id, tok_pos) mention
    o = oracle[oracle["canonical_curie"] == "MONDO:0000001"].sort_values(["tok_pos"])
    o = o.assign(_d=pd.to_numeric(o["doc_id"])).sort_values(["_d", "tok_pos"])
    assert m1["name"] == o.iloc[0]["name"]
    assert int(m1["n_mentions"]) == len(o)
    # per-concept mention counts match the oracle exactly
    counts = concepts.set_index("concept_id")["n_mentions"].astype(int).to_dict()
    want = oracle.groupby("canonical_curie").size().to_dict()
    assert counts == want


def test_triples(sf_smoke, oracle):
    trip = kg.kg_triples(sf_smoke).to_pandas()
    exp = trip[trip["pred"] != "dug:annotates"]
    concepts = set(oracle["canonical_curie"])
    edges = ontology.edges_df()
    want = set()
    for _, e in edges.iterrows():
        if e["subj"] not in concepts:
            continue
        if e["subj"] in ontology.TRANQL_EXCLUDE_IDENTIFIERS:
            continue
        if e["subj"].split(":")[0] not in ontology.QUERY_VALID_PREFIXES[e["source_query"]]:
            continue
        want.add((e["subj"], e["pred"], e["obj"]))
    assert set(map(tuple, exp[["subj", "pred", "obj"]].values)) == want
    # annotates edges = distinct (canonical, element) pairs of the oracle
    ann = trip[trip["pred"] == "dug:annotates"]
    want_pairs = set(map(tuple, oracle[["canonical_curie", "element_id"]]
                         .drop_duplicates().values))
    assert set(map(tuple, ann[["subj", "obj"]].values)) == want_pairs


def test_cast_elements(sf_smoke):
    trip = kg.kg_triples(sf_smoke)
    cast = cast_elements_from_triples(trip).to_pandas()
    assert set(cast["element_id"]) == {"HEALCDE:42", "HEALCDE:43", "HEALCDE:44"}
    assert (cast["data_type"] == "cde").all()


def test_preprocess_debreviator():
    """M2: ordered substring replacement before tokenization
    (monarch_annotator.py:155-172; default dict config.py:35-40)."""
    import pyarrow as pa
    from dug_ray.stages.annotate import DictionaryNER, preprocess_text
    col = pa.array(["bmi high", "a_b"])
    out = preprocess_text(col, {"bmi": "body mass index", "_": " "})
    assert out.to_pylist() == ["body mass index high", "a b"]
    # NER with a preprocessor that rewrites a term into a lexicon hit
    ner = DictionaryNER(preprocessor={"zzz": "merge"})
    batch = pa.table({
        "element_id": ["1-s0"], "doc_id": ["1"], "collection_id": ["src0"],
        "span_offset": pa.array([0], pa.int32()), "chunk_idx": pa.array([0], pa.int32()),
        "element_desc": ["zzz table"],
    })
    hits = ner(batch)
    assert hits.num_rows == 1
    assert hits.column("curie").to_pylist() == ["MESH:D001"]


def test_kg_answers_oracle(sf_smoke, oracle):
    """A6/M18 answer dedup vs the python oracle's expansion set."""
    from dug_ray import queries
    ans = queries.q_kg_answers(sf_smoke).to_pandas()
    concepts = set(oracle["canonical_curie"])
    edges = ontology.edges_df()
    want = {}
    for _, e in edges.iterrows():
        if (e["subj"] in concepts
                and e["subj"] not in ontology.TRANQL_EXCLUDE_IDENTIFIERS
                and e["subj"].split(":")[0]
                in ontology.QUERY_VALID_PREFIXES[e["source_query"]]):
            want.setdefault((e["subj"], e["source_query"]), set()).add(e["obj"])
    got = {(r["subj"], r["source_query"]): set(r["objs"].split("|"))
           for _, r in ans.iterrows()}
    assert got == want
    # answer_id dedup contract: joined sorted node ids + query name
    for _, r in ans.iterrows():
        assert r["answer_id"] == r["objs"].replace("|", "_") + "_" + r["source_query"]


def test_export_searchable(sf_smoke, tmp_path):
    from dug_ray.pipelines.export import export_searchable
    counts = export_searchable(sf_smoke, str(tmp_path / "idx"))
    assert counts["concepts"] == 12
    assert counts["elements"] > 3000
    assert counts["kg"] == 14
    # the counts come from the written files' footers: they must equal a
    # read-back of each directory
    import ray.data
    assert counts == {part: ray.data.read_parquet(str(tmp_path / "idx" / part)).count()
                      for part in ("elements", "concepts", "kg")}


def test_custom_lexicon_flows_through_linker():
    """Extensibility contract: a custom broadcast lexicon (lexicon_ref)
    must flow NER -> link end-to-end — the linker builds its composite
    from the SAME lexicon, so new greenlisted terms survive the rescue
    path instead of being silently dropped."""
    import pyarrow as pa
    import ray

    from dug_ray.stages.annotate import DictionaryNER
    from dug_ray.stages.link import LinkNormalize

    custom = pd.concat([ontology.lexicon_df(), pd.DataFrame([{
        "term": "zebrafish", "curie": "MESH:D015027", "label": "Zebrafish",
        "category": "biolink:OrganismTaxon", "score": 0.95}])],
        ignore_index=True)
    ref = ray.put(custom)
    elements = pa.table({
        "doc_id": ["1"], "element_id": ["1-s0"], "collection_id": ["src0"],
        "span_offset": pa.array([0], pa.int32()),
        "chunk_idx": pa.array([0], pa.int32()),
        "element_desc": ["the zebrafish swims"],
    })
    mentions = DictionaryNER(lexicon_ref=ref)(elements)
    linked = LinkNormalize(lexicon_ref=ref)(mentions).to_pandas()
    zeb = linked[linked["curie"] == "MESH:D015027"]
    # MESH is greenlisted and absent from the normalizer -> rescue keeps it
    assert len(zeb) == 1
    assert zeb.iloc[0]["canonical_curie"] == "MESH:D015027"
    assert zeb.iloc[0]["name"] == "Zebrafish"


def test_custom_lexicon_through_linked_mentions_ds(sf_smoke):
    """Stage options travel as fn_kwargs of the one task form: a broadcast
    lexicon that maps a corpus word to a new greenlisted CURIE yields that
    CURIE, once per occurrence of the word, at the Dataset level."""
    import ray

    custom = pd.concat([ontology.lexicon_df(), pd.DataFrame([{
        "term": "column", "curie": "UBERON:9999999", "label": "column organ",
        "category": "biolink:AnatomicalEntity", "score": 0.9}])],
        ignore_index=True)
    ref = ray.put(custom)
    linked = kg.linked_mentions_ds(sf_smoke, lexicon_ref=ref).to_pandas()
    hits = linked[linked["curie"] == "UBERON:9999999"]
    raw = pq.read_table(f"{sf_smoke}/documents.parquet").to_pandas()
    n_column = sum(t.split(" ").count("column") for t in raw["text"])
    assert n_column > 0
    assert len(hits) == n_column
    assert (hits["canonical_curie"] == "UBERON:9999999").all()
    assert (hits["name"] == "column organ").all()


@pytest.mark.parametrize("corpus", ["sf0.001", "sf0.01"])
def test_crawl_equals_kg_triples(corpus, sf_smoke, tmp_path):
    """One KG path: the crawl's part files hold exactly the rows of
    kg_triples, which has TRIPLE_SCHEMA's plain string columns."""
    import argparse
    import glob

    import pyarrow as pa

    from dug_ray import cli
    from dug_ray.stages.expand import TRIPLE_SCHEMA

    sf_dir = os.path.join(os.path.dirname(sf_smoke), corpus)
    out = str(tmp_path / "kg")
    cli.cmd_crawl(argparse.Namespace(num_cpus=None, sf_dir=sf_dir, out=out,
                                     parser="dbgap", resumable=False))
    crawled = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(f"{out}/part-*.parquet"))]).to_pandas()
    ds = kg.kg_triples(sf_dir)
    assert ds.schema().base_schema.remove_metadata() == TRIPLE_SCHEMA
    got = ds.to_pandas()
    assert (got.dtypes == object).all()
    cols = TRIPLE_SCHEMA.names
    a = crawled[cols].sort_values(cols).reset_index(drop=True)
    b = got[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_export_in_second_ray_session(sf_smoke, tmp_path):
    """``dug_ray index`` and the registry memo work in a later Ray session
    of the same process. Runs in a subprocess: the suite owns one session."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = f"""
import ray
from ray.data import DataContext
from dug_ray import queries
from dug_ray.pipelines.export import export_searchable
for i in range(2):
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR", object_store_memory=200 * 2**20)
    DataContext.get_current().enable_progress_bars = False
    counts = export_searchable({sf_smoke!r}, {str(tmp_path)!r} + f"/idx{{i}}")
    n = queries.q_linked_mentions({sf_smoke!r}).count()
    print("RESULT", sorted(counts.items()), n, flush=True)
    ray.shutdown()
"""
    p = subprocess.run([sys.executable, "-c", script], cwd=repo, capture_output=True,
                       text=True, timeout=600)
    assert p.returncode == 0, p.stderr[-2000:]
    results = [ln for ln in p.stdout.splitlines() if ln.startswith("RESULT")]
    assert len(results) == 2 and results[0] == results[1]


@pytest.mark.parametrize("cmd", [["index"], ["crawl"], ["crawl", "--resumable"]])
def test_product_path_skips_registry(sf_smoke, tmp_path, cmd):
    """``dug_ray crawl`` / ``index`` (and the resumable runner behind
    ``crawl --resumable``) never import the query registry: the product
    path stands alone from ``dug_ray.queries``."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = """
import atexit, sys
atexit.register(lambda: print("REGISTRY_IMPORTED", "dug_ray.queries" in sys.modules))
from dug_ray import cli
sys.exit(cli.main(sys.argv[1:]))
"""
    argv = ["--num-cpus", "2", cmd[0], sf_smoke, "-o", str(tmp_path / "out"), *cmd[1:]]
    p = subprocess.run([sys.executable, "-c", script, *argv], cwd=repo,
                       capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, p.stderr[-2000:]
    assert "REGISTRY_IMPORTED False" in p.stdout.splitlines(), p.stdout[-500:]


def test_crawl_count_from_manifest(sf_smoke, tmp_path, capsys):
    """The crawl reports the rows its manifest records, which are the rows
    of its part files: for a fresh crawl, a second crawl into the same
    directory and a resumable crawl."""
    import argparse
    import json

    from dug_ray import cli
    from dug_ray.stages.materialize import read_graph

    def crawl(sf_dir, out, resumable=False):
        assert cli.cmd_crawl(argparse.Namespace(num_cpus=None, sf_dir=sf_dir, out=out,
                                                parser="dbgap", resumable=resumable)) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])["triples"]

    other = os.path.join(os.path.dirname(sf_smoke), "sf0.01")
    out = str(tmp_path / "kg")
    first = crawl(other, out)
    assert first == read_graph(out).count() > 0
    second = crawl(sf_smoke, out)
    assert second == read_graph(out).count() > 0 and second != first
    resumable = str(tmp_path / "resumable")
    assert crawl(sf_smoke, resumable, resumable=True) == read_graph(resumable).count() == second
