"""Document sources: parquet/lance readers + the deterministic spanifier.

The engine's canonical input (BASELINE.json ``input_hint``) is an interleaved
text+media document table::

    doc_id: string
    spans:  list<struct<kind:string, text:string, media_ref:string, offset:int32>>

The driver testdata ships a flat ``documents`` table (doc_id:int64, text,
lang, source, n_chars). ``spanify`` lifts it into the interleaved shape
deterministically (pure function of each row), standing in for one dbGaP
data-dictionary file whose ``<variable>`` entries are the text spans
(reference: ``/root/reference/src/dug/core/parsers/dbgap_parser.py:44-84``)
with media attachments interleaved:

- text tokens are chunked into windows of ``SPAN_TOKENS`` (=8) words: one
  text span per chunk, in order;
- after every 2nd text span a media span is inserted with
  ``media_ref = media://{doc_id}/{offset}`` (an opaque binary-content
  pointer; decode is a stubbed actor stage, see stages/multimodal.py);
- ``offset`` is the global 0-based span index within the doc — the column
  that carries the per-row invariant **span-sequence equality
  (kind, text, media_ref, order)** demanded by BASELINE.json.

Derived index arithmetic used throughout the engine and the DuckDB oracles:

- text chunk ``c`` (0-based) sits at global span offset ``c + c//2``;
- a text span at offset ``o`` is chunk ``c = o - (o+1)//3``;
- token positions are 1-based over the doc's full whitespace tokenization,
  so chunk ``c`` covers positions ``c*8+1 .. c*8+len(chunk)`` — identical to
  DuckDB's ``generate_subscripts(string_split(text,' '),1)``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

SPAN_TOKENS = 8          # words per text span
MEDIA_EVERY = 2          # media span inserted after every 2nd text span

SPAN_STRUCT = pa.struct([
    ("kind", pa.string()),
    ("text", pa.string()),
    ("media_ref", pa.string()),
    ("offset", pa.int32()),
])

DOCUMENTS_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("lang", pa.string()),
    ("source", pa.string()),
    ("spans", pa.list_(SPAN_STRUCT)),
])


def read_documents(sf_dir: str, columns: list[str] | None = None) -> ray.data.Dataset:
    """Read the flat driver documents table, pruning columns at the read.

    Storage shim (SURVEY.md §7.1): if a ``documents.lance`` dataset exists
    and ``ray.data.read_lance`` is importable (pylance installed), read
    Lance — the north-rule storage format at 10^12-doc scale; otherwise
    fall back to parquet (this env ships no pylance)."""
    import os
    cols = columns or ["doc_id", "text", "lang", "source"]
    lance_path = f"{sf_dir}/documents.lance"
    if os.path.isdir(lance_path) and hasattr(ray.data, "read_lance"):
        try:
            return ray.data.read_lance(lance_path, columns=cols)
        except ImportError:
            pass
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=cols)


def chunk_offsets(n_chunks: int) -> np.ndarray:
    """Global span offsets of text chunks 0..n_chunks-1 (media interleaved)."""
    c = np.arange(n_chunks, dtype=np.int32)
    return c + c // MEDIA_EVERY


def _excl_cumsum(a: np.ndarray) -> np.ndarray:
    out = np.zeros(len(a) + 1, dtype=np.int64)
    np.cumsum(a, out=out[1:])
    return out


def _spanify_batch(batch: pa.Table) -> pa.Table:
    """Fully vectorized spanifier: one input doc row -> one interleaved-span
    row. No Python loop over rows/tokens: tokenization, chunk assembly
    (``binary_join`` over a re-windowed list array) and the media interleave
    are all Arrow/numpy kernels."""
    tokens = pc.split_pattern(batch["text"], " ")
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    flat = tokens.flatten()
    n_tok = pc.list_value_length(tokens).to_numpy(zero_copy_only=False).astype(np.int64)
    ndocs = len(batch)

    # --- chunk windows of SPAN_TOKENS tokens per doc -----------------------
    n_chunks = -(-n_tok // SPAN_TOKENS)  # ceil
    doc_tok_start = _excl_cumsum(n_tok)
    chunk_doc = np.repeat(np.arange(ndocs), n_chunks)
    chunk_local = np.arange(len(chunk_doc)) - np.repeat(_excl_cumsum(n_chunks)[:-1], n_chunks)
    chunk_starts = doc_tok_start[chunk_doc] + SPAN_TOKENS * chunk_local
    chunk_offsets_arr = np.append(chunk_starts, doc_tok_start[-1]).astype(np.int64)
    chunk_list = pa.LargeListArray.from_arrays(pa.array(chunk_offsets_arr), flat)
    chunk_texts = pc.binary_join(chunk_list, " ")  # one string per text span

    # --- interleave media spans (one after every MEDIA_EVERY text spans) ---
    n_spans = n_chunks + n_chunks // MEDIA_EVERY
    span_doc = np.repeat(np.arange(ndocs), n_spans)
    local = np.arange(len(span_doc)) - np.repeat(_excl_cumsum(n_spans)[:-1], n_spans)
    is_media = local % (MEDIA_EVERY + 1) == MEDIA_EVERY

    # text spans take the chunk texts in order and media spans take the
    # appended "" (and the reverse for media refs): one Arrow ``take`` each
    n_text = np.cumsum(~is_media) - 1
    n_media = np.cumsum(is_media) - 1
    text_col = pa.concat_arrays([pc.cast(chunk_texts, pa.string()), pa.array([""])]).take(
        pa.array(np.where(is_media, len(chunk_texts), n_text)))

    doc_id_str = pc.cast(batch["doc_id"], pa.string())
    mi = np.flatnonzero(is_media)
    # vectorized "media://{doc}/{offset}" — no per-span Python formatting
    # on the headline spanify path
    refs = pc.binary_join_element_wise(
        "media://", pc.take(doc_id_str, pa.array(span_doc[mi])), "/",
        pc.cast(pa.array(local[mi]), pa.string()), "")
    media_ref = pa.concat_arrays([*refs.chunks, pa.array([""])]).take(
        pa.array(np.where(is_media, n_media, len(mi))))

    struct = pa.StructArray.from_arrays(
        [pa.array(["text", "media"]).take(pa.array(is_media.astype(np.int8))),
         text_col, media_ref, pa.array(local, type=pa.int32())],
        names=["kind", "text", "media_ref", "offset"])
    spans = pa.ListArray.from_arrays(
        pa.array(_excl_cumsum(n_spans), type=pa.int32()), struct)

    return pa.table({
        "doc_id": doc_id_str,
        "lang": batch["lang"],
        "source": batch["source"],
        "spans": spans,
    })


def spanify(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Flat documents -> interleaved-span documents (input_hint shape)."""
    return docs.map_batches(_spanify_batch, batch_format="pyarrow", batch_size=None)


OVERLAP_PADDING = 5      # tokens of context shared between adjacent windows


def _overlapping_windows_batch(batch: pa.Table, window: int, padding: int) -> pa.Table:
    """One row per overlapping token window (fully vectorized: the window
    token indices are one gather over the flat token array; no row loop)."""
    stride = window - padding
    tokens = pc.split_pattern(batch["text"], " ")
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    flat = tokens.flatten()
    n_tok = pc.list_value_length(tokens).to_numpy(zero_copy_only=False).astype(np.int64)
    doc_tok_start = _excl_cumsum(n_tok)

    # windows per doc: 1 if the text fits, else enough strides to cover it
    n_win = np.where(n_tok <= window, 1,
                     -(-(n_tok - window) // stride) + 1).astype(np.int64)
    win_doc = np.repeat(np.arange(len(batch)), n_win)
    win_local = np.arange(len(win_doc)) - np.repeat(_excl_cumsum(n_win)[:-1], n_win)
    win_start = win_local * stride                       # 0-based within doc
    win_len = np.minimum(window, n_tok[win_doc] - win_start)

    # gather: global token index of every (window, position-in-window)
    tok_idx = (np.repeat(doc_tok_start[win_doc] + win_start, win_len)
               + np.arange(win_len.sum())
               - np.repeat(_excl_cumsum(win_len)[:-1], win_len))
    taken = flat.take(pa.array(tok_idx))
    win_list = pa.LargeListArray.from_arrays(pa.array(_excl_cumsum(win_len)), taken)

    return pa.table({
        "doc_id": pc.take(pc.cast(batch["doc_id"], pa.string()), pa.array(win_doc)),
        "win_idx": pa.array(win_local, pa.int64()),
        "start_pos": pa.array(win_start + 1, pa.int64()),   # 1-based token pos
        "text": pc.binary_join(win_list, " "),
    })


def overlapping_windows(docs: ray.data.Dataset, window: int = SPAN_TOKENS,
                        padding: int = OVERLAP_PADDING) -> ray.data.Dataset:
    """M3 overlap fidelity: the reference's long-text splitter slides a
    window that re-reads the previous ``padding_words`` (=5) tokens so a
    mention straddling a window boundary is still seen whole by the
    annotator (``monarch_annotator.py:85-111``). Disjoint ``spanify`` chunks
    are the interleaved-span contract; THIS operator is the NER-side chunk
    stream: windows of ``window`` tokens advancing by ``window - padding``,
    every token covered, adjacent windows sharing ``padding`` tokens.
    Output: doc_id, win_idx, start_pos (1-based first-token position), text."""
    if not 0 <= padding < window:
        raise ValueError(
            f"padding must satisfy 0 <= padding < window (got padding="
            f"{padding}, window={window}); the stride is window - padding")

    def per_batch(batch: pa.Table) -> pa.Table:
        return _overlapping_windows_batch(batch, window, padding)
    return docs.map_batches(per_batch, batch_format="pyarrow", batch_size=None)


def flatten_spans(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Interleaved docs -> one row per span, fully vectorized via Arrow list
    flatten (zero row-loop). Output: doc_id, lang, source, kind, text,
    media_ref, offset."""

    def _flat(batch: pa.Table) -> pa.Table:
        spans = batch["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        parent = pc.list_parent_indices(spans)
        flat = spans.flatten()
        return pa.table({
            "doc_id": pc.take(batch["doc_id"], parent),
            "lang": pc.take(batch["lang"], parent),
            "source": pc.take(batch["source"], parent),
            "kind": flat.field("kind"),
            "text": flat.field("text"),
            "media_ref": flat.field("media_ref"),
            "offset": flat.field("offset"),
        })

    return docs.map_batches(_flat, batch_format="pyarrow", batch_size=None)


def read_interleaved(sf_dir: str) -> ray.data.Dataset:
    """The engine's canonical entry: interleaved document Dataset."""
    return spanify(read_documents(sf_dir))
