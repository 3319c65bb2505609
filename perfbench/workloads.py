"""Seeded corpus generators for the benchmark workloads.

Every generator is a pure function of ``(seed, n_docs)`` and returns a
pyarrow table with the schema of the shipped ``documents`` table
(``doc_id:int64, text, lang, source, n_chars:int64``). The program under
test only ever sees the ``documents.parquet`` written from it.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# The 31-word vocabulary of the shipped documents table. The first 14 words
# are NER lexicon terms (dug_ray/ontology.py NER_LEXICON); the rest never
# produce a mention.
LEXICON_TERMS = ["the", "merge", "hash", "slow", "query", "join", "sort",
                 "spark", "scan", "filter", "vector", "stream", "batch",
                 "window"]
PLAIN_WORDS = ["table", "column", "value", "data", "small", "big", "group",
               "customer", "order", "line", "part", "fast", "row", "agg",
               "key", "a", "dup"]
LANGS = ["en", "de", "es", "fr", "zh"]
SOURCES = [f"src{i}" for i in range(20)]

DOCS_SCHEMA = pa.schema([("doc_id", pa.int64()), ("text", pa.string()),
                         ("lang", pa.string()), ("source", pa.string()),
                         ("n_chars", pa.int64())])


def _assemble(rng: np.random.Generator, vocab: list[str], tok: np.ndarray,
              lengths: np.ndarray) -> pa.Table:
    """Join the token ids ``tok`` (indices into ``vocab``) into one
    space-separated text per document, ``lengths`` tokens each (in Arrow),
    and draw the lang/source columns."""
    n = len(lengths)
    words = pa.DictionaryArray.from_arrays(pa.array(tok), pa.array(vocab)).cast(pa.string())
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    text = pc.binary_join(pa.ListArray.from_arrays(pa.array(offsets), words), " ")
    return pa.Table.from_arrays(
        [pa.array(np.arange(n, dtype=np.int64)), text,
         pa.array(np.asarray(LANGS, dtype=object)[rng.integers(0, len(LANGS), n)]),
         pa.array(np.asarray(SOURCES, dtype=object)[rng.integers(0, len(SOURCES), n)]),
         pc.cast(pc.utf8_length(text), pa.int64())],
        schema=DOCS_SCHEMA)


def dense_corpus(seed: int, n_docs: int) -> pa.Table:
    """Short docs (10-100 tokens) over the 31-word vocabulary: ~47% lexicon
    tokens, with ``the`` (-> MONDO:0004976) alone a third of the mentions."""
    rng = np.random.default_rng([seed, 1])
    lexicon_share, hot_share = 0.47, 1 / 3
    p_hot = lexicon_share * hot_share
    p_lex = (lexicon_share - p_hot) / (len(LEXICON_TERMS) - 1)
    p_plain = (1 - lexicon_share) / len(PLAIN_WORDS)
    probs = np.array([p_hot] + [p_lex] * (len(LEXICON_TERMS) - 1)
                     + [p_plain] * len(PLAIN_WORDS))
    lengths = rng.integers(10, 101, n_docs)
    tok = rng.choice(len(probs), size=int(lengths.sum()), p=probs / probs.sum())
    return _assemble(rng, LEXICON_TERMS + PLAIN_WORDS, tok.astype(np.int32), lengths)


def sparse_vocab(size: int = 4000) -> list[str]:
    """``size`` distinct lowercase filler words, none of them a lexicon term
    or a word of the shipped vocabulary (fixed, seed-independent)."""
    letters = np.array(list("bcdfghjklmnpqrstvwxz"))
    rng = np.random.default_rng(4000)
    taken = set(LEXICON_TERMS) | set(PLAIN_WORDS)
    out: list[str] = []
    while len(out) < size:
        w = "".join(letters[rng.integers(0, len(letters), rng.integers(4, 9))])
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


def sparse_corpus(seed: int, n_docs: int) -> pa.Table:
    """Long docs (200-600 tokens) over ~4k words; lexicon terms are ~2% of
    tokens, uniform across the 14 terms."""
    rng = np.random.default_rng([seed, 2])
    filler = sparse_vocab()
    lengths = rng.integers(200, 601, n_docs)
    n_tok = int(lengths.sum())
    tok = np.where(rng.random(n_tok) < 0.02,
                   rng.integers(0, len(LEXICON_TERMS), n_tok),
                   len(LEXICON_TERMS) + rng.integers(0, len(filler), n_tok))
    return _assemble(rng, LEXICON_TERMS + filler, tok.astype(np.int32), lengths)


def write_corpus(table: pa.Table, sf_dir: str) -> str:
    """Write ``table`` as ``<sf_dir>/documents.parquet`` (the program's only
    input); several row groups so the reader can split it across CPUs."""
    os.makedirs(sf_dir, exist_ok=True)
    pq.write_table(table, os.path.join(sf_dir, "documents.parquet"),
                   row_group_size=max(1, table.num_rows // 16))
    return sf_dir
