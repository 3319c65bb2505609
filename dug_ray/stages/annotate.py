"""NER annotation stage: elements -> candidate mentions.

Re-expresses dug's Monarch/SapBERT annotation chain (SURVEY.md §2.2 M2-M6)
as one stateful ``map_batches`` task, ``ner_batch``:

- text preprocessing / debreviator (``monarch_annotator.py:155-172``,
  default dict ``config.py:35-40``) — substring replacement applied with
  pyarrow kernels before tokenization;
- dictionary NER (the stand-in for the Monarch SciGraph annotator HTTP call,
  ``monarch_annotator.py:113-153``): whitespace tokens are matched against
  the lexicon; one token may yield several candidate identifiers, mirroring
  the span x token expansion of the reference's 7-identifier "heart attack"
  fixture (``tests/unit/test_annotators.py:26-41``);
- linker candidate scores ride along (SapBERT top-k scoring,
  ``sapbert_annotator.py:233-320``); the >= 0.8 threshold filter is applied
  downstream in stages/link.py.

Scale notes: the lexicon is per-worker-process state (``DictionaryNER``),
built ONCE per process and stage options and reused by every later task in
that process; at cluster scale it arrives via ``ray.put`` broadcast (the
``lexicon_ref`` option). The batch body is Arrow compute plus numpy:
``split_pattern`` + flat token explode, one ``index_in`` of the tokens
against the lexicon's distinct terms, and a precomputed CSR (each term's
lexicon rows) that ``np.repeat`` expands into one candidate per (token,
lexicon row), in token order and then lexicon order; one ``take`` builds
each output column. No pandas and no per-row Python loop.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from dug_ray import ontology
from dug_ray.io import SPAN_TOKENS, _excl_cumsum

#: default abbreviation-expansion dict (config.py:35-40: {"bmi": "body mass
#: index", "_": " "}); identity on the synthetic corpus.
DEFAULT_PREPROCESSOR: dict[str, str] = {}

#: the lexicon's columns as the mention table carries them
LEXICON_SCHEMA = pa.schema([("term", pa.string()), ("curie", pa.string()),
                           ("label", pa.string()), ("category", pa.string()),
                           ("score", pa.float64())])

MENTION_COLUMNS = [
    "doc_id", "element_id", "collection_id", "span_offset", "tok_pos",
    "term", "curie", "label", "category", "score",
]


def preprocess_text(col: pa.ChunkedArray | pa.Array, replacements: dict[str, str]) -> pa.Array | pa.ChunkedArray:
    """Debreviator (M2): ordered substring replacement, vectorized."""
    for pat, rep in replacements.items():
        col = pc.replace_substring(col, pattern=pat, replacement=rep)
    return col


class DictionaryNER:
    """State of the NER stage; ``ner_batch`` holds one per worker process.

    ``lexicon_ref`` may be a ``ray.ObjectRef`` to a broadcast lexicon
    DataFrame (the 100 TB pattern: ``ray.put`` once on the driver, fetched
    once per worker process), else the module-level synthetic lexicon is
    used.

    CONTRACT: ``tok_pos`` is the 1-based global position in the
    POST-preprocessor tokenization. With the identity default preprocessor
    (the reference ships debreviation disabled) this equals the raw-text
    tokenization that the DuckDB oracles reproduce; a replacement that
    changes token counts shifts positions relative to raw text — callers
    enabling a non-identity debreviator must not mix its mention positions
    with raw-text-derived ones.
    """

    def __init__(self, lexicon_ref=None, preprocessor: dict[str, str] | None = None):
        lex = ray.get(lexicon_ref) if lexicon_ref is not None else ontology.lexicon_df()
        lex = pa.Table.from_pandas(
            lex[LEXICON_SCHEMA.names], schema=LEXICON_SCHEMA, preserve_index=False)
        self.lexicon = lex.filter(pc.is_valid(lex["term"]))  # a null term matches no token
        # CSR over the distinct terms: term k's lexicon rows, in lexicon
        # order, are rows[start[k]:start[k] + count[k]]
        enc = pc.dictionary_encode(self.lexicon["term"]).combine_chunks()
        term_code = enc.indices.to_numpy()
        self.terms = enc.dictionary
        self.rows = np.argsort(term_code, kind="stable")
        self.count = np.bincount(term_code, minlength=len(self.terms))
        self.start = _excl_cumsum(self.count)[:-1]
        self.preprocessor = dict(DEFAULT_PREPROCESSOR if preprocessor is None else preprocessor)

    def __call__(self, batch: pa.Table) -> pa.Table:
        desc = preprocess_text(batch["element_desc"], self.preprocessor)
        tokens = pc.split_pattern(desc, " ")
        if isinstance(tokens, pa.ChunkedArray):
            tokens = tokens.combine_chunks()
        parent = pc.list_parent_indices(tokens).to_numpy(zero_copy_only=False)
        flat = tokens.flatten()
        # 0-based position of each token within its span text (robust to any
        # non-zero list-array slice offset: recompute starts from lengths)
        lengths = pc.list_value_length(tokens).to_numpy(zero_copy_only=False)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        pos_in_span = np.arange(len(flat)) - starts[parent]

        # each hit token expands into its term's lexicon rows: token order
        # first, then lexicon order
        term = pc.index_in(flat, value_set=self.terms)
        hit = np.flatnonzero(pc.is_valid(term).to_numpy(zero_copy_only=False))
        if len(hit) == 0:
            return pa.table({c: pa.array([], type=(pa.int32() if c in ("span_offset", "tok_pos")
                                                  else pa.float64() if c == "score" else pa.string()))
                             for c in MENTION_COLUMNS})
        k = pc.drop_null(term).to_numpy()
        n = self.count[k]
        tok = np.repeat(hit, n)
        lex_row = self.rows[np.repeat(self.start[k], n) + np.arange(n.sum())
                            - np.repeat(_excl_cumsum(n)[:-1], n)]

        take = pa.array(parent[tok], type=pa.int64())
        chunk_idx = pc.take(batch["chunk_idx"], take).to_numpy(zero_copy_only=False).astype(np.int64)
        # 1-based global token position in the doc's full text (io.py contract)
        tok_pos = chunk_idx * SPAN_TOKENS + pos_in_span[tok] + 1
        lex = self.lexicon.take(pa.array(lex_row))
        return pa.table({
            "doc_id": pc.take(batch["doc_id"], take),
            "element_id": pc.take(batch["element_id"], take),
            "collection_id": pc.take(batch["collection_id"], take),
            "span_offset": pc.take(batch["span_offset"], take),
            "tok_pos": pa.array(tok_pos, type=pa.int32()),
            **{c: lex[c] for c in LEXICON_SCHEMA.names},
        })


#: per-process stage state, one per (hashable) option tuple
_ner = functools.lru_cache(maxsize=8)(DictionaryNER)


def ner_batch(batch: pa.Table, *, lexicon_ref=None,
              preprocessor: dict[str, str] | None = None) -> pa.Table:
    """The NER stage as a task: ``map_batches(ner_batch, fn_kwargs=...)``.

    Its state is memoized per worker process and per options (worker
    processes are reused across tasks, so the lexicon is built once per
    process — the amortization of an actor, with elastic task scheduling
    and no pool spin-up per execution)."""
    items = None if preprocessor is None else tuple(preprocessor.items())
    return _ner(lexicon_ref, items)(batch)


def annotate_elements(elements: ray.data.Dataset, *, lexicon_ref=None,
                      preprocessor: dict[str, str] | None = None) -> ray.data.Dataset:
    """elements -> candidate mentions."""
    return elements.map_batches(
        ner_batch, fn_kwargs={"lexicon_ref": lexicon_ref, "preprocessor": preprocessor},
        batch_format="pyarrow", batch_size=None)
