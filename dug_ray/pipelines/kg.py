"""Flagship pipeline: documents -> knowledge-graph triple table.

The Ray-Data form of ``dug crawl`` (SURVEY.md §3.4; reference
``src/dug/cli.py:111-118`` -> ``core/crawler.py:45-107``), built ONE way:
a single streaming pass of fused map stages and one exchange,

    read -> spanify -> parse (elements)
         -> NER (ner_batch: candidate mentions)
         -> link+normalize (link_batch: canonical CURIEs)
         -> triples_partial (per batch: annotates pairs U ontology-edge
            expansion)
         -> salted subject-bucket exchange: exact dedup + sort
            (kg_triples returns it; the crawl's materialize_graph also
            writes each partition)

Every stateful stage is a task whose state is memoized per worker process
and per stage options (stages/annotate.py, stages/link.py). ``linked`` is
the one place the parse -> NER -> link chain is composed: the CLI crawl, the
resumable runner, ``bench.py`` and the registry queries all build on it.
"""

from __future__ import annotations

import ray
import ray.data

from dug_ray.io import read_interleaved
from dug_ray.stages.annotate import annotate_elements
from dug_ray.stages.expand import triples_partial
from dug_ray.stages.link import link_mentions
from dug_ray.stages.materialize import dedup_triples
from dug_ray.stages.parse import parse_elements


def linked(docs: ray.data.Dataset, parser, *, lexicon_ref=None,
           preprocessor: dict[str, str] | None = None, **link_opts) -> ray.data.Dataset:
    """spanified documents -> linked mentions: parse (``parser``, e.g.
    ``parse_elements`` or a registry parser) -> NER -> link.

    ``lexicon_ref`` (a broadcast lexicon) feeds both stages, ``preprocessor``
    the NER stage; ``link_opts`` (``threshold``, ``greenlist``,
    ``mention_filter``) go to the linker."""
    mentions = annotate_elements(parser(docs), lexicon_ref=lexicon_ref,
                                 preprocessor=preprocessor)
    return link_mentions(mentions, lexicon_ref=lexicon_ref, **link_opts)


def triples(docs: ray.data.Dataset, parser) -> ray.data.Dataset:
    """spanified documents -> per-batch triples, before the dedup exchange."""
    return triples_partial(linked(docs, parser))


def linked_mentions_ds(sf_dir: str, **opts) -> ray.data.Dataset:
    """documents -> linked mentions (options as for ``linked``)."""
    return linked(read_interleaved(sf_dir), parse_elements, **opts)


def kg_triples(sf_dir: str) -> ray.data.Dataset:
    """Full triple set (expansion triples U annotates edges): the crawl's
    chain and exchange without the write, as ``TRIPLE_SCHEMA`` strings."""
    return dedup_triples(triples(read_interleaved(sf_dir), parse_elements))


# Registry-side memo: an oracle check (selfcheck.py) runs dozens of queries
# against one sf_dir in one Ray session, and the linked mentions / the
# triple set are their common prefixes. One slot per kind: switching sf_dir
# evicts the previous entry, so a long-lived session never pins more than
# one corpus's tables in the object store. Product paths (crawl, index)
# never use it.
_CACHE: dict[str, tuple] = {}


def _session_key() -> str:
    """Current Ray node id: a cached MaterializedDataset's object refs die
    with their session, so the key must change across
    ray.shutdown()/ray.init() cycles in one Python process (the job id does
    not: the first job of every new session is 01000000)."""
    try:
        return ray.get_runtime_context().get_node_id()
    except Exception:  # noqa: BLE001 - no session
        return "-"


def _cached(kind: str, sf_dir: str, build) -> ray.data.Dataset:
    key = (sf_dir, _session_key())
    if _CACHE.get(kind, (None,))[0] != key:
        _CACHE.pop(kind, None)  # free the old slot before building the new one
        _CACHE[kind] = (key, build(sf_dir).materialize())
    return _CACHE[kind][1]


def linked_mentions_cached(sf_dir: str) -> ray.data.Dataset:
    """Materialized ``linked_mentions_ds(sf_dir)``, memoized for the session."""
    return _cached("linked", sf_dir, linked_mentions_ds)


def kg_triples_cached(sf_dir: str) -> ray.data.Dataset:
    """Materialized ``kg_triples(sf_dir)``, memoized for the session."""
    return _cached("triples", sf_dir, kg_triples)
