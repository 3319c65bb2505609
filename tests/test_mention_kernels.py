"""The Arrow per-batch kernels of the crawl's fused map: spanify, NER, link
and the triples combiner.

Each kernel is checked against the pandas / object-array kernel it
replaced (copied below as the reference): ``Table.equals``, so the same
rows in the same order with the same schema, on generated document batches
that mix lexicon terms (``scan`` has two CURIEs, one below the linker's
0.8 threshold), plain and non-ASCII words, empty texts and runs of spaces,
and docs longer than one span."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
from hypothesis import given, settings
from hypothesis import strategies as st

from dug_ray import ontology
from dug_ray.io import MEDIA_EVERY, SPAN_TOKENS, _excl_cumsum, _spanify_batch
from dug_ray.stages.annotate import MENTION_COLUMNS, DictionaryNER, preprocess_text
from dug_ray.stages.expand import _valid_edges, triples_partial
from dug_ray.stages.link import LinkNormalize
from dug_ray.stages.parse import elements_from_spans

# --------------------------------------------------------------------------
# references: the kernels as they were before the Arrow rewrite
# --------------------------------------------------------------------------


def spanify_reference(batch: pa.Table) -> pa.Table:
    tokens = pc.split_pattern(batch["text"], " ")
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    flat = tokens.flatten()
    n_tok = pc.list_value_length(tokens).to_numpy(zero_copy_only=False).astype(np.int64)
    ndocs = len(batch)
    n_chunks = -(-n_tok // SPAN_TOKENS)
    doc_tok_start = _excl_cumsum(n_tok)
    chunk_doc = np.repeat(np.arange(ndocs), n_chunks)
    chunk_local = np.arange(len(chunk_doc)) - np.repeat(_excl_cumsum(n_chunks)[:-1], n_chunks)
    chunk_starts = doc_tok_start[chunk_doc] + SPAN_TOKENS * chunk_local
    chunk_offsets_arr = np.append(chunk_starts, doc_tok_start[-1]).astype(np.int64)
    chunk_list = pa.LargeListArray.from_arrays(pa.array(chunk_offsets_arr), flat)
    chunk_texts = pc.binary_join(chunk_list, " ")
    n_spans = n_chunks + n_chunks // MEDIA_EVERY
    span_doc = np.repeat(np.arange(ndocs), n_spans)
    local = np.arange(len(span_doc)) - np.repeat(_excl_cumsum(n_spans)[:-1], n_spans)
    is_media = local % (MEDIA_EVERY + 1) == MEDIA_EVERY
    text_col = np.empty(len(local), dtype=object)
    text_col[~is_media] = chunk_texts.to_numpy(zero_copy_only=False)
    text_col[is_media] = ""
    doc_id_str = pc.cast(batch["doc_id"], pa.string())
    doc_ids_np = doc_id_str.to_numpy(zero_copy_only=False)
    media_ref = np.full(len(local), "", dtype=object)
    mi = np.flatnonzero(is_media)
    refs = pc.binary_join_element_wise(
        pa.array(np.full(len(mi), "media://", dtype=object), pa.string()),
        pa.array(doc_ids_np[span_doc[mi]], pa.string()),
        pa.array(np.full(len(mi), "/", dtype=object), pa.string()),
        pc.cast(pa.array(local[mi]), pa.string()),
        pa.scalar(""))
    media_ref[mi] = refs.to_numpy(zero_copy_only=False)
    kind = np.where(is_media, "media", "text")
    struct = pa.StructArray.from_arrays(
        [pa.array(kind, type=pa.string()), pa.array(text_col, type=pa.string()),
         pa.array(media_ref, type=pa.string()), pa.array(local, type=pa.int32())],
        names=["kind", "text", "media_ref", "offset"])
    spans = pa.ListArray.from_arrays(pa.array(_excl_cumsum(n_spans), type=pa.int32()), struct)
    return pa.table({"doc_id": doc_id_str, "lang": batch["lang"],
                     "source": batch["source"], "spans": spans})


def ner_reference(lexicon: pd.DataFrame, preprocessor: dict, batch: pa.Table,
                  token_order: bool = True) -> pa.Table:
    lexicon = lexicon.rename(columns={"term": "_term"}).assign(_row=np.arange(len(lexicon)))
    desc = preprocess_text(batch["element_desc"], preprocessor)
    tokens = pc.split_pattern(desc, " ")
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    parent = pc.list_parent_indices(tokens).to_numpy(zero_copy_only=False)
    flat = tokens.flatten()
    lengths = pc.list_value_length(tokens).to_numpy(zero_copy_only=False)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    pos_in_span = np.arange(len(flat)) - starts[parent]
    enc = pc.dictionary_encode(flat)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = enc.indices.to_numpy(zero_copy_only=False)
    vocab = pd.DataFrame({"_code": np.arange(len(enc.dictionary)),
                          "_term": enc.dictionary.to_pandas()})
    lex_codes = vocab.merge(lexicon, on="_term", how="inner", sort=False)
    tok = pd.DataFrame({"_parent": parent, "_code": codes, "_pos": pos_in_span,
                        "_tok": np.arange(len(flat))})
    hits = tok.merge(lex_codes, on="_code", how="inner", sort=False)
    if token_order:
        # pandas 2.2's inner merge returns token order, then lexicon order,
        # except when a batch's candidate count equals its token count: a
        # shortcut meant for one-to-one matches then permutes the rows
        hits = hits.sort_values(["_tok", "_row"], kind="stable")
    if len(hits) == 0:
        return pa.table({c: pa.array([], type=(pa.int32() if c in ("span_offset", "tok_pos")
                                              else pa.float64() if c == "score" else pa.string()))
                         for c in MENTION_COLUMNS})
    take = pa.array(hits["_parent"].to_numpy(), type=pa.int64())
    chunk_idx = pc.take(batch["chunk_idx"], take).to_numpy(zero_copy_only=False).astype(np.int64)
    tok_pos = chunk_idx * SPAN_TOKENS + hits["_pos"].to_numpy() + 1
    return pa.table({
        "doc_id": pc.take(batch["doc_id"], take),
        "element_id": pc.take(batch["element_id"], take),
        "collection_id": pc.take(batch["collection_id"], take),
        "span_offset": pc.take(batch["span_offset"], take),
        "tok_pos": pa.array(tok_pos, type=pa.int32()),
        "term": pa.array(hits["_term"], type=pa.string()),
        "curie": pa.array(hits["curie"], type=pa.string()),
        "label": pa.array(hits["label"], type=pa.string()),
        "category": pa.array(hits["category"], type=pa.string()),
        "score": pa.array(hits["score"], type=pa.float64()),
    })


LINKED_COLUMNS = ["doc_id", "element_id", "collection_id", "span_offset", "tok_pos",
                  "term", "curie", "canonical_curie", "name", "type", "synonyms", "purl",
                  "score"]


def link_reference(linker: LinkNormalize, batch: pa.Table) -> pa.Table:
    # the composite lookup is built as before; only its container changed
    resolved = linker.resolved.to_pandas()
    batch = batch.filter(pc.greater_equal(batch["score"], linker.threshold))
    df = batch.to_pandas()
    if linker.mention_filter is not None:
        df = linker.mention_filter(df)
    df = df.merge(resolved, on="curie", how="inner", sort=False)
    return pa.Table.from_pandas(df[LINKED_COLUMNS], preserve_index=False).cast(pa.schema([
        ("doc_id", pa.string()), ("element_id", pa.string()),
        ("collection_id", pa.string()), ("span_offset", pa.int32()),
        ("tok_pos", pa.int32()), ("term", pa.string()),
        ("curie", pa.string()), ("canonical_curie", pa.string()),
        ("name", pa.string()), ("type", pa.string()),
        ("synonyms", pa.string()), ("purl", pa.string()),
        ("score", pa.float64()),
    ]))


def triples_reference(batch: pa.Table) -> pa.Table:
    df = batch.select(["canonical_curie", "element_id"]).to_pandas().drop_duplicates()
    n = len(df)
    ann = pa.table({
        "subj": pa.array(df["canonical_curie"], type=pa.string()).dictionary_encode(),
        "pred": pa.nulls(n, pa.string()).fill_null("dug:annotates").dictionary_encode(),
        "obj": pa.array(df["element_id"], type=pa.string()),
        "obj_name": pa.nulls(n, pa.string()).fill_null("").dictionary_encode(),
        "source_query": pa.nulls(n, pa.string()).fill_null("annotation").dictionary_encode(),
    })
    edges = _valid_edges().to_pandas()
    hit = edges[edges["subj"].isin(set(df["canonical_curie"].unique()))]
    exp = pa.table({c: pa.array(hit[c], type=pa.string()) if c == "obj"
                    else pa.array(hit[c], type=pa.string()).dictionary_encode()
                    for c in ["subj", "pred", "obj", "obj_name", "source_query"]})
    return pa.concat_tables([exp, ann], promote_options="default")


class _Batches:
    """Stands in for a Dataset: ``map_batches`` hands back the batch fn."""

    def map_batches(self, fn, **_):
        return fn


triples_kernel = triples_partial(_Batches())

# --------------------------------------------------------------------------
# generated document batches
# --------------------------------------------------------------------------

LEXICON_TERMS = sorted({t for t, *_ in ontology.NER_LEXICON})
WORDS = LEXICON_TERMS + ["table", "data", "café", "数据", "naïve", "🙂", "scanner", "The", ""]
# a text is a list of words joined by one space; "" words make runs of
# spaces (and leading / trailing ones)
TEXT = st.lists(st.sampled_from(WORDS), max_size=3 * SPAN_TOKENS + 3).map(" ".join)
DOCS = st.lists(TEXT, max_size=12)


def documents(texts) -> pa.Table:
    n = len(texts)
    return pa.table({"doc_id": pa.array(range(n), pa.int64()),
                     "text": pa.array(texts, pa.string()),
                     "lang": pa.array(["en"] * n, pa.string()),
                     "source": pa.array([f"src{i % 3}" for i in range(n)], pa.string())})


def elements(spanified: pa.Table) -> pa.Table:
    spans = spanified["spans"].combine_chunks()
    parent = pc.list_parent_indices(spans)
    flat = spans.flatten()
    return elements_from_spans(pa.table({
        "doc_id": pc.take(spanified["doc_id"], parent),
        "lang": pc.take(spanified["lang"], parent),
        "source": pc.take(spanified["source"], parent),
        "kind": flat.field("kind"), "text": flat.field("text"),
        "media_ref": flat.field("media_ref"), "offset": flat.field("offset")}))


def assert_same(got: pa.Table, want: pa.Table):
    assert got.schema.equals(want.schema, check_metadata=True)
    assert got.equals(want), (got.to_pylist()[:5], want.to_pylist()[:5])


def check_chain(texts, ner: DictionaryNER, lexicon: pd.DataFrame, linker: LinkNormalize):
    """Every kernel of the chain equals its reference on the same input;
    returns the number of linked mentions."""
    docs = documents(texts)
    spanified = _spanify_batch(docs)
    assert_same(spanified, spanify_reference(docs))
    elem = elements(spanified)
    mentions = ner(elem)
    assert_same(mentions, ner_reference(lexicon, ner.preprocessor, elem))
    linked = linker(mentions)
    assert_same(linked, link_reference(linker, mentions))
    assert_same(triples_kernel(linked), triples_reference(linked))
    return linked.num_rows


@pytest.fixture(scope="module")
def builtin():
    return DictionaryNER(), LinkNormalize()


@settings(max_examples=120, deadline=None)
@given(texts=DOCS)
def test_kernels_match_references(builtin, texts):
    ner, linker = builtin
    check_chain(texts, ner, ontology.lexicon_df(), linker)


def test_pandas_merge_order_corner_case(builtin):
    """The one kind of batch where the pandas kernel's rows came out in
    another order: an empty span (one "" token, no hit) and a two-candidate
    ``scan`` give as many candidates as tokens. The kernel returns the same
    rows in token order, then lexicon order."""
    ner, _ = builtin
    elem = elements(_spanify_batch(documents(["", "batch scan batch"])))
    got = ner(elem)
    assert_same(got, ner_reference(ontology.lexicon_df(), {}, elem))
    assert [(r["tok_pos"], r["curie"]) for r in got.to_pylist()] == [
        (1, "PATO:0000100"), (2, "MESH:D004"), (2, "UMLS:C004"), (3, "PATO:0000100")]
    pandas_rows = ner_reference(ontology.lexicon_df(), {}, elem, token_order=False).to_pylist()
    assert sorted(map(repr, got.to_pylist())) == sorted(map(repr, pandas_rows))


def test_scan_yields_two_candidates_one_linked(builtin):
    ner, linker = builtin
    texts = ["a scan of the  café " + " ".join(["data"] * SPAN_TOKENS) + " scan"]
    assert check_chain(texts, ner, ontology.lexicon_df(), linker) > 0
    mentions = ner(elements(_spanify_batch(documents(texts))))
    scans = [(r["tok_pos"], r["curie"]) for r in mentions.to_pylist() if r["term"] == "scan"]
    # token order first, then lexicon order; the second span's scan sits
    # at its global 1-based token position
    assert scans == [(2, "MESH:D004"), (2, "UMLS:C004"), (15, "MESH:D004"), (15, "UMLS:C004")]
    linked = linker(mentions)
    assert [r["curie"] for r in linked.to_pylist() if r["term"] == "scan"] == \
        ["MESH:D004", "MESH:D004"]


@pytest.mark.parametrize("texts", [[], [""], ["", "   "], ["table data café", "数据 🙂 naïve"]],
                         ids=["no-docs", "empty-text", "only-spaces", "no-hit"])
def test_empty_and_no_hit_batches(builtin, texts):
    ner, linker = builtin
    assert check_chain(texts, ner, ontology.lexicon_df(), linker) == 0


def test_custom_lexicon():
    """A broadcast lexicon: a term with three CURIEs (one from a prefix
    outside the greenlist), a non-ASCII term, a repeated row and integer
    scores; NER and link both build from it."""
    lexicon = pd.DataFrame([
        ("数据", "MESH:D900", "data thing", "biolink:Disease", 1),
        ("table", "UMLS:C900", "table one", "biolink:Disease", 0.9),
        ("table", "ZZZ:1", "table two", "biolink:Disease", 0.95),
        ("table", "MONDO:0004976", "table three", "biolink:Disease", 0.85),
        ("merge", "MESH:D001", "coronary merge", "biolink:Disease", 0.97),
        ("merge", "MESH:D001", "coronary merge", "biolink:Disease", 0.97),
    ], columns=["term", "curie", "label", "category", "score"])
    ref = ray.put(lexicon)
    ner, linker = DictionaryNER(lexicon_ref=ref), LinkNormalize(lexicon_ref=ref)
    texts = ["table 数据 merge the scan", " ".join(["table"] * 20), "the café"]
    assert check_chain(texts, ner, lexicon, linker) > 0


@settings(max_examples=30, deadline=None)
@given(texts=DOCS)
def test_token_count_changing_preprocessor(texts):
    """A debreviator that splits one token into three shifts every later
    token position; the kernel and the reference shift them alike."""
    ner = DictionaryNER(preprocessor={"table": "merge join table", "数据": "data"})
    check_chain(texts, ner, ontology.lexicon_df(), LinkNormalize())


class DropThe:
    def __call__(self, df):
        return df[df["term"] != "the"]


@settings(max_examples=30, deadline=None)
@given(texts=DOCS)
def test_mention_filter(builtin, texts):
    ner, _ = builtin
    linker = LinkNormalize(mention_filter=DropThe)
    check_chain(texts, ner, ontology.lexicon_df(), linker)
    assert "the" not in pc.unique(linker(ner(elements(_spanify_batch(documents(texts)))))
                                  ["term"]).to_pylist()


def test_mention_filter_rejecting_everything(builtin):
    ner, _ = builtin
    linker = LinkNormalize(mention_filter=lambda: lambda df: df.iloc[0:0])
    assert check_chain(["the merge scan", "hash"], ner, ontology.lexicon_df(), linker) == 0


def test_chunked_linked_batch():
    """The combiner over a linked batch split in two chunks (each chunk's
    own dictionaries) keeps first-occurrence order across the split."""
    ner, linker = DictionaryNER(), LinkNormalize()
    linked = linker(ner(elements(_spanify_batch(documents(
        ["the merge the hash", "the merge", "scan the merge"] * 3)))))
    half = linked.num_rows // 2
    chunked = pa.Table.from_batches(linked.slice(0, half).to_batches()
                                    + linked.slice(half).to_batches())
    assert_same(triples_kernel(chunked), triples_reference(linked))
