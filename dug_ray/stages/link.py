"""Linker + normalization stage: candidate mentions -> linked mentions.

Re-expresses dug's score-threshold + node-normalizer + synonym + PURL chain
(SURVEY.md §2.2 M6, M8-M11, §2.4 J3-J4) as one stateful ``map_batches``
task, ``link_batch``:

- score threshold ``score >= 0.8`` (``sapbert_annotator.py:310-319``,
  config ``preprocessor`` direction flag ``config.py:48-51``) — a vectorized
  compute filter;
- identifier normalization (``annotators/_base.py:97-180``): raw CURIE ->
  preferred CURIE/label/type via the broadcast normalizer map (J3). A null
  preferred id is a normalization *failure*;
- greenlist rescue (M9, ``monarch_annotator.py:62-74`` +
  ``config.py:134-145``): failed identifiers survive with their raw CURIE
  only when the CURIE prefix is in the ontology greenlist, keeping the NER
  label/category as the resolved metadata; otherwise the mention is dropped
  (the ``norm_fails`` stream of M12 — surfaced as a metrics counter);
- synonym enrichment (M10, ``_base.py:183-229``): canonical CURIE ->
  pipe-joined sorted synonym list via the broadcast synonym map (J4);
- PURL attach (M11, ``biolink_purl_util.py:165-174``): static prefix map.

The three lookup tables are tiny versus the mention stream, so they are
resolved once per worker process and stage options into one composite Arrow
table (``LinkNormalize``, one row per raw CURIE). A batch joins it with one
``index_in`` of its CURIEs and one ``take`` of the matched rows — no pandas
per batch (except around a ``mention_filter``) and never a shuffle.
At 10^12-doc scale this is exactly the "broadcast small side" join pattern;
only if the normalizer map itself outgrew worker memory would this become a
hash-partitioned shuffle join.
"""

from __future__ import annotations

import functools

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from dug_ray import ontology

LINKED_SCHEMA = pa.schema([
    ("doc_id", pa.string()), ("element_id", pa.string()),
    ("collection_id", pa.string()), ("span_offset", pa.int32()),
    ("tok_pos", pa.int32()), ("term", pa.string()),
    ("curie", pa.string()), ("canonical_curie", pa.string()),
    ("name", pa.string()), ("type", pa.string()),
    ("synonyms", pa.string()), ("purl", pa.string()),
    ("score", pa.float64()),
])

#: the composite lookup: one row per raw CURIE the lexicon can produce
RESOLVED_SCHEMA = pa.schema([
    ("curie", pa.string()), ("canonical_curie", pa.string()), ("name", pa.string()),
    ("type", pa.string()), ("synonyms", pa.string()), ("purl", pa.string()),
])


def _synonyms_joined() -> pd.DataFrame:
    syn = ontology.synonym_df()
    return (
        syn.sort_values("synonym")
        .groupby("curie", as_index=False)
        .agg(synonyms=("synonym", lambda s: "|".join(sorted(set(s)))))
    )


class LinkNormalize:
    """State of the linker stage; ``link_batch`` holds one per worker
    process and stage options."""

    def __init__(self, lexicon_ref=None,
                 threshold: float = ontology.LINKER_SCORE_THRESHOLD,
                 greenlist: list[str] | None = None,
                 mention_filter=None):
        # M7 hook: optional candidate filter (the bagel LLM slot,
        # sapbert_annotator.py:16-52) — constructed once per worker process,
        # default-off like the reference config. Accepts a factory callable
        # (shipped pickled from the driver — see link_mentions, which
        # resolves registry names there; this process's registry only has
        # import-time registrations) or a registry name.
        if mention_filter is None:
            self.mention_filter = None
        elif callable(mention_filter):
            self.mention_filter = mention_filter()
        else:
            from dug_ray.registry import get_mention_filter
            self.mention_filter = get_mention_filter(mention_filter)()
        norm = ontology.normalizer_df()
        synonyms = _synonyms_joined()
        self.threshold = threshold
        greenset = set(ontology.ONTOLOGY_GREENLIST if greenlist is None else greenlist)
        # The whole normalize+rescue+synonym+purl chain is a static function
        # of the raw CURIE (given the broadcast tables), so it is resolved
        # ONCE here into a composite lookup — one hash merge per batch
        # instead of two string merges + per-row maps. The NER label/category
        # feed the rescue path, so the composite is keyed on (curie, label,
        # category) tuples taken from the lexicon (the only producers).
        syn_map = dict(zip(synonyms["curie"], synonyms["synonyms"]))
        rows = []
        # the composite MUST be built from the same lexicon the NER stage
        # ran with — a custom broadcast lexicon (lexicon_ref, the 100 TB
        # extensibility path) produces mentions whose CURIEs the builtin
        # table doesn't know; keying off the builtin alone would silently
        # drop them, greenlist rescue included
        lex = (ray.get(lexicon_ref) if lexicon_ref is not None
               else ontology.lexicon_df()).drop_duplicates(subset=["curie"])
        norm_map = {r["curie"]: r for _, r in norm.iterrows()}
        for _, lrow in lex.iterrows():
            curie = lrow["curie"]
            n = norm_map.get(curie)
            if n is not None and isinstance(n["preferred_curie"], str):
                canonical, name, typ = n["preferred_curie"], n["preferred_label"], n["preferred_type"]
            elif curie.partition(":")[0] in greenset:
                canonical, name, typ = curie, lrow["label"], lrow["category"]
            else:
                continue  # normalization failure outside greenlist -> dropped
            rows.append({
                "curie": curie, "canonical_curie": canonical, "name": name,
                "type": typ, "synonyms": syn_map.get(canonical, ""),
                "purl": ontology.purl_for(canonical),
            })
        self.resolved = pa.Table.from_pandas(
            pd.DataFrame(rows, columns=RESOLVED_SCHEMA.names),
            schema=RESOLVED_SCHEMA, preserve_index=False)

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater_equal(batch["score"], self.threshold))
        if self.mention_filter is not None:
            batch = pa.Table.from_pandas(self.mention_filter(batch.to_pandas()),
                                         schema=batch.schema, preserve_index=False)
        # ``resolved`` holds each curie once, so the lookup is a position in
        # it; unresolved mentions (no position) are dropped
        idx = pc.index_in(batch["curie"], value_set=self.resolved["curie"])
        keep = pc.is_valid(idx)
        batch = batch.filter(keep)
        res = self.resolved.take(idx.filter(keep))
        return pa.table([batch[c] if c in batch.column_names else res[c]
                         for c in LINKED_SCHEMA.names],
                        names=LINKED_SCHEMA.names).cast(LINKED_SCHEMA)


#: per-process stage state, one per (hashable) option tuple
_linker = functools.lru_cache(maxsize=8)(LinkNormalize)


def link_batch(batch: pa.Table, *, lexicon_ref=None,
               threshold: float = ontology.LINKER_SCORE_THRESHOLD,
               greenlist: list[str] | None = None, mention_filter=None) -> pa.Table:
    """The linker as a task: ``map_batches(link_batch, fn_kwargs=...)``; its
    state is memoized per worker process and options (see
    annotate.ner_batch)."""
    green = None if greenlist is None else tuple(greenlist)
    return _linker(lexicon_ref, threshold, green, mention_filter)(batch)


def link_mentions(mentions: ray.data.Dataset, *, lexicon_ref=None,
                  threshold: float = ontology.LINKER_SCORE_THRESHOLD,
                  greenlist: list[str] | None = None,
                  mention_filter=None) -> ray.data.Dataset:
    """candidate mentions -> linked (canonicalized) mentions.

    A ``mention_filter`` given by registry NAME is resolved to its factory
    HERE (driver-side, where the user registered it) and shipped to the
    workers pickled — worker processes never replay in-process
    registrations."""
    if isinstance(mention_filter, str):
        from dug_ray.registry import get_mention_filter
        mention_filter = get_mention_filter(mention_filter)
    return mentions.map_batches(
        link_batch,
        fn_kwargs={"lexicon_ref": lexicon_ref, "threshold": threshold,
                   "greenlist": greenlist, "mention_filter": mention_filter},
        batch_format="pyarrow", batch_size=None)
