"""User-extension registry: pluggable parsers + annotators (SURVEY.md §2.10).

The reference exposes pluggy hookspecs ``define_parsers`` /
``define_annotators`` (``/root/reference/src/dug/hookspecs.py:12-22``) with
a name-keyed registry (``core/parsers/__init__.py:24-53``) that third-party
packages extend via entry points. The Ray-Data equivalent: a parser is a
``Dataset -> Dataset`` callable over the interleaved documents table; an
annotator is a batch-callable factory (class or function) usable in
``map_batches``. Register with the decorators; look up by name exactly like
``get_parser`` (``parsers/__init__.py:63-75`` raises on unknown names)."""

from __future__ import annotations

from typing import Callable

import ray.data

_PARSERS: dict[str, Callable[[ray.data.Dataset], ray.data.Dataset]] = {}
_ANNOTATORS: dict[str, Callable] = {}
_MENTION_FILTERS: dict[str, Callable] = {}


def register_parser(name: str):
    def deco(fn):
        _PARSERS[name] = fn
        return fn
    return deco


def register_annotator(name: str):
    def deco(factory):
        _ANNOTATORS[name] = factory
        return factory
    return deco


def register_mention_filter(name: str):
    """M7 hook — the bagel LLM filter slot (``sapbert_annotator.py:16-52``:
    given the text + candidate identifiers, keep a subset). A registered
    factory returns a callable ``DataFrame -> DataFrame`` that row-filters
    candidate mention rows (columns include term, curie, score, doc/element
    ids); it runs inside the linker task, constructed once per worker like
    the reference's per-session BagelWrapper. Default-off, matching the
    reference config (``config.py:53``)."""
    def deco(factory):
        _MENTION_FILTERS[name] = factory
        return factory
    return deco


def get_mention_filter(name: str):
    if name not in _MENTION_FILTERS:
        raise KeyError(f"Cannot find mention filter of type '{name}'")
    return _MENTION_FILTERS[name]


def get_parser(name: str):
    if name not in _PARSERS:
        raise KeyError(f"Cannot find parser of type '{name}'")  # parsers/__init__.py:74 wording
    return _PARSERS[name]


def get_annotator(name: str):
    if name not in _ANNOTATORS:
        raise KeyError(f"Cannot find annotator of type '{name}'")
    return _ANNOTATORS[name]


def parser_names() -> list[str]:
    return sorted(_PARSERS)


#: setuptools entry-point group scanned for third-party plugins — the
#: Ray-side analogue of the reference's pluggy group "dug"
ENTRY_POINT_GROUP = "dug_ray"


def load_entry_point_plugins(group: str = ENTRY_POINT_GROUP) -> int:
    """Load third-party parser/annotator plugins from setuptools entry
    points — the equivalent of the reference's
    ``pm.load_setuptools_entrypoints("dug")`` (``core/__init__.py:29-35``),
    so an external package extends the registry by declaring::

        [project.entry-points.dug_ray]
        my_plugin = my_package.plugin_module

    without editing dug_ray.  Each entry point must load to either

    - a module/object exposing ``define_parsers(parser_dict)`` and/or
      ``define_annotators(annotator_dict)`` — the reference's hookspec
      names (``hookspecs.py:12-22``); the hook mutates the dict in place
      exactly like the reference's pluggy impls; or
    - a callable invoked as ``plugin(parsers=..., annotators=...)``.

    Returns the number of plugins loaded.  Called once at import; safe to
    re-call after installing a distribution mid-process (re-registration
    overwrites by name, latest wins — same dict semantics as the
    reference's name-keyed registry)."""
    from importlib import metadata
    try:
        eps = list(metadata.entry_points(group=group))
    except TypeError:  # pre-3.10 entry_points() signature
        eps = list(metadata.entry_points().get(group, []))
    n = 0
    for ep in eps:
        obj = ep.load()
        if hasattr(obj, "define_parsers") or hasattr(obj, "define_annotators"):
            if hasattr(obj, "define_parsers"):
                obj.define_parsers(_PARSERS)
            if hasattr(obj, "define_annotators"):
                obj.define_annotators(_ANNOTATORS)
        else:
            obj(parsers=_PARSERS, annotators=_ANNOTATORS)
        n += 1
    return n


def _register_defaults() -> None:
    from dug_ray.stages.annotate import ner_batch
    from dug_ray.stages.link import link_batch
    from dug_ray.stages.parse import PARSER_BRANDS, parse_elements

    for brand in PARSER_BRANDS:
        _PARSERS[brand] = (lambda docs, b=brand: parse_elements(docs, data_type=b))
    _ANNOTATORS["dictionary-ner"] = ner_batch
    _ANNOTATORS["link-normalize"] = link_batch


_register_defaults()
load_entry_point_plugins()
