"""The one O5/A7 edge kernel (``stages.graph.edge_partials`` /
``merge_edges``) and the Dataset stage built on it (``aggregate_edges``).

O5/A7: an edge's weight is the number of distinct (conv_id, turn_idx)
behind it; its provenance is the smallest ``PROVENANCE_CAP`` of them."""

from __future__ import annotations

from collections import defaultdict

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from neuroner_ray.schemas import EDGES, NODES
from neuroner_ray.stages.graph import (
    PROVENANCE_CAP,
    aggregate_edges,
    canonical_map,
    edge_partials,
    merge_edges,
)

_COLS = ["src_id", "dst_id", "pred", "conv_id", "turn_idx"]
_TYPES = [pa.string()] * 4 + [pa.int32()]


def _reference(rows) -> dict:
    turns = defaultdict(set)
    for s, d, p, c, t in rows:
        turns[(s, d, p)].add((c, t))
    return {k: (len(v), sorted(v)[:PROVENANCE_CAP]) for k, v in turns.items()}


def _as_dict(edges: pa.Table) -> dict:
    return {
        (r["src_id"], r["dst_id"], r["pred"]): (
            r["weight"],
            [(x["conv_id"], x["turn_idx"]) for x in r["provenance"]],
        )
        for r in edges.to_pylist()
    }


def _table(rows) -> pa.Table:
    return pa.table(
        {
            c: pa.array([r[i] for r in rows], t)
            for i, (c, t) in enumerate(zip(_COLS, _TYPES))
        }
    )


def _collect(ds) -> pa.Table:
    batches = ds.iter_batches(batch_size=None, batch_format="pyarrow")
    return pa.concat_tables(list(batches))


_small = st.sampled_from(["a", "b", "c"])
_conv = st.sampled_from(["c0", "c1", "c2", "c10"])
_row = st.tuples(_small, _small, st.sampled_from(["p", "q"]), _conv, st.integers(0, 3))


@st.composite
def _instances(draw):
    rows = draw(st.lists(_row, min_size=1, max_size=40))
    # duplicate 5-tuples, and a hot edge (anywhere in the sort order) with
    # more than CAP distinct turns over few convs: ties on conv_id, so
    # turn_idx decides which turns the cap keeps
    rows += draw(st.lists(st.sampled_from(rows), max_size=10))
    src, dst = draw(_small), draw(_small)
    hot = draw(
        st.lists(
            st.tuples(_conv, st.integers(0, 9)),
            min_size=PROVENANCE_CAP + 1,
            max_size=20,
            unique=True,
        )
    )
    rows += [(src, dst, "p", c, t) for c, t in hot]
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order]


@settings(max_examples=150, deadline=None)
@given(rows=_instances(), data=st.data())
def test_kernel_split_merge_equals_whole_and_reference(rows, data):
    whole = edge_partials(_table(rows))
    assert whole.schema.equals(EDGES)
    assert _as_dict(whole) == _reference(rows)

    convs = sorted({r[3] for r in rows})
    part_of = {c: data.draw(st.integers(0, 3)) for c in convs}
    parts = defaultdict(list)
    for r in rows:
        parts[part_of[r[3]]].append(r)
    partials = [edge_partials(_table(p)) for p in parts.values()]
    order = data.draw(st.permutations(range(len(partials))))
    merged = merge_edges(pa.concat_tables([partials[i] for i in order]))
    assert merged.equals(whole)
    assert merge_edges(merged).equals(merged)  # idempotent across tree levels


def test_kernel_empty_inputs_are_typed_empty():
    empty = EDGES.empty_table()
    assert edge_partials(pa.table({})).equals(empty)
    assert edge_partials(_table([])).equals(empty)
    assert merge_edges(pa.table({})).equals(empty)
    assert merge_edges(empty).equals(empty)


def test_split_block_alias_rows_of_one_turn_count_once():
    """Two surface variants of one canonical triple in one turn, arriving
    in two blocks: weight 1 and one provenance entry, as in one block."""
    import ray.data as rd

    nodes = pa.table(
        {
            "entity_id": ["PER:Alice Johnson", "ORG:Acme Corp"],
            "canonical": ["Alice Johnson", "Acme Corp"],
            "ent_type": ["PER", "ORG"],
            "surfaces": [["Alice Johnson", "alice johnson"], ["ACME", "Acme Corp"]],
            "mention_count": [2, 2],
        },
        schema=NODES,
    )
    cmap = canonical_map(rd.from_arrow(nodes))

    def triple(subj: str, obj: str) -> pa.Table:
        return pa.table(
            {
                "conv_id": ["c1"],
                "turn_idx": pa.array([0], pa.int32()),
                "subj": [subj],
                "pred": ["works_at"],
                "obj": [obj],
                "subj_type": ["PER"],
                "obj_type": ["ORG"],
                "confidence": pa.array([1.0], pa.float32()),
            }
        )

    t1, t2 = triple("Alice Johnson", "Acme Corp"), triple("alice johnson", "ACME")
    one = aggregate_edges(rd.from_arrow(pa.concat_tables([t1, t2])), cmap)
    two = aggregate_edges(rd.from_arrow([t1, t2]), cmap)
    expected = {
        ("PER:Alice Johnson", "ORG:Acme Corp", "works_at"): (1, [("c1", 0)])
    }
    assert _as_dict(_collect(one)) == expected
    assert _as_dict(_collect(two)) == expected
