"""First-writer-wins semantics of ``build_concepts`` (SURVEY.md §2.5 A1).

A concept's name, type and ``first_doc_id`` / ``first_tok_pos`` come from
its mention with the least (doc id in natural order, tok_pos): natural order
is (length, then lexicographic), which equals numeric order for canonical
integer ids. ``first_doc_id`` is the exact int64 of that doc id when it is
``-?\\d{1,19}`` and fits int64, and -1 otherwise. An exact (doc, tok_pos)
tie between mentions from different blocks resolves by name, then type, so
the block order never decides.

The mentions are hand-built and spread over several blocks, so every case
crosses the partial/merge boundary."""

import pyarrow as pa
import pytest
import ray.data

from dug_ray.stages.canonicalize import build_concepts

# (block, canonical_curie, doc_id, tok_pos, name, type, element_id)
MENTIONS = [
    # natural order: '9' wins over '10'
    (0, "C:natural", "10", 0, "ten", "t", "e1"),
    (1, "C:natural", "9", 5, "nine", "t", "e2"),
    (2, "C:natural", "10", 1, "ten", "t", "e1"),
    # a non-numeric id that is shorter wins on order and parses to -1
    (0, "C:accession", "1234567890", 0, "numeric", "t", "e3"),
    (1, "C:accession", "phs000123", 7, "accession", "t", "e4"),
    # int64 max parses exactly
    (2, "C:max", "9223372036854775807", 3, "max", "t", "e5"),
    # past int64 (19 digits) and 20 digits give -1
    (0, "C:overflow19", "9999999999999999999", 2, "over", "t", "e6"),
    (1, "C:overflow20", "12345678901234567890", 2, "over20", "t", "e7"),
    # negative ids parse, int64 min included; one past it gives -1
    (1, "C:negative", "-5", 4, "neg", "t", "e8"),
    (2, "C:negative", "-10", 0, "neg10", "t", "e8"),
    (0, "C:min", "-9223372036854775808", 1, "min", "t", "e9"),
    (2, "C:below_min", "-9223372036854775809", 1, "below", "t", "e9"),
    # exact (doc, tok_pos) ties across blocks: name decides, then type
    (0, "C:tie_name", "3", 4, "beta", "t", "e10"),
    (2, "C:tie_name", "3", 4, "alpha", "u", "e11"),
    (1, "C:tie_type", "3", 4, "same", "t2", "e12"),
    (2, "C:tie_type", "3", 4, "same", "t1", "e12"),
]

# concept -> (name, type, first_doc_id, first_tok_pos, n_mentions, n_elements)
EXPECTED = {
    "C:natural": ("nine", "t", 9, 5, 3, 2),
    "C:accession": ("accession", "t", -1, 7, 2, 2),
    "C:max": ("max", "t", 9223372036854775807, 3, 1, 1),
    "C:overflow19": ("over", "t", -1, 2, 1, 1),
    "C:overflow20": ("over20", "t", -1, 2, 1, 1),
    "C:negative": ("neg", "t", -5, 4, 2, 1),
    "C:min": ("min", "t", -9223372036854775808, 1, 1, 1),
    "C:below_min": ("below", "t", -1, 1, 1, 1),
    "C:tie_name": ("alpha", "u", 3, 4, 2, 2),
    "C:tie_type": ("same", "t1", 3, 4, 2, 1),
}


def _block(rows) -> pa.Table:
    return pa.table({
        "doc_id": pa.array([r[2] for r in rows], pa.string()),
        "element_id": pa.array([r[6] for r in rows], pa.string()),
        "collection_id": pa.array(["c"] * len(rows), pa.string()),
        "tok_pos": pa.array([r[3] for r in rows], pa.int32()),
        "term": pa.array([r[4] for r in rows], pa.string()),
        "curie": pa.array([r[1] for r in rows], pa.string()),
        "canonical_curie": pa.array([r[1] for r in rows], pa.string()),
        "name": pa.array([r[4] for r in rows], pa.string()),
        "type": pa.array([r[5] for r in rows], pa.string()),
        "synonyms": pa.array([""] * len(rows), pa.string()),
        "purl": pa.array([None] * len(rows), pa.string()),
    })


def _concepts(block_order):
    blocks = [_block([m for m in MENTIONS if m[0] == b]) for b in block_order]
    ds = ray.data.from_arrow(blocks)
    assert ds.num_blocks() == len(blocks)
    return {r["concept_id"]: r for r in build_concepts(ds).take_all()}


@pytest.mark.parametrize("block_order", [[0, 1, 2], [2, 1, 0], [1, 2, 0]])
def test_first_wins(block_order):
    got = _concepts(block_order)
    assert set(got) == set(EXPECTED)
    for cid, (name, typ, doc, pos, n_m, n_e) in EXPECTED.items():
        r = got[cid]
        assert (r["name"], r["type"], r["first_doc_id"], r["first_tok_pos"],
                r["n_mentions"], r["n_elements"]) == (name, typ, doc, pos, n_m, n_e), cid
