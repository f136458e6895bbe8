"""Session-scoped Ray fixture — ONE ray.init per pytest session — and the
frozen KG goldens every engine regime is compared against."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import warnings

    from ray.data import DataContext

    # Ray 2.49 self-deprecation: DataContext is a dataclass whose fields
    # use_push_based_shuffle / use_polars still exist with defaults, so
    # the dataclass __init__ itself trips the deprecating __setattr__ on
    # FIRST construction (ray/data/context.py:589,603) — not repo code.
    # Construct the driver-process context eagerly under suppression so
    # the suite's warnings summary stays clean.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore",
            category=DeprecationWarning,
            message=r".*(use_push_based_shuffle|use_polars).*",
        )
        ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


def _graph_table(x, schema: pa.Schema) -> pa.Table:
    """A Dataset or a written graph-table directory → ``schema`` columns."""
    if isinstance(x, str):
        parts = [pq.read_table(x)]
    else:
        parts = [b for b in x.iter_batches(batch_size=None, batch_format="pyarrow") if b.num_rows]
    return pa.concat_tables(
        [schema.empty_table()] + [t.select(schema.names).cast(schema) for t in parts]
    )


def _nodes_frame(x):
    """Nodes sorted by entity_id, ``surfaces`` as tuples."""
    from neuroner_ray.schemas import NODES

    df = _graph_table(x, NODES).to_pandas().sort_values("entity_id")
    df["surfaces"] = df["surfaces"].map(tuple)
    return df.reset_index(drop=True)


def _edges_frame(x):
    """Edges sorted by (src_id, dst_id, pred), ``provenance`` as tuples of
    (conv_id, turn_idx)."""
    from neuroner_ray.schemas import EDGES

    df = _graph_table(x, EDGES).to_pandas().sort_values(["src_id", "dst_id", "pred"])
    df["provenance"] = df["provenance"].map(
        lambda ps: tuple((p["conv_id"], p["turn_idx"]) for p in ps)
    )
    return df.reset_index(drop=True)


@pytest.fixture(scope="session")
def assert_golden_graph():
    """``check(nodes, edges, tagger="rule")``: the graph equals the frozen
    sf0.0002 golden of that tagger — nodes with ``surfaces``, edges with
    ``provenance``. ``nodes``/``edges`` are Datasets or written table
    directories. The goldens were frozen from the materializing pipeline
    that preceded the single engine (FIXTURES.md F6)."""

    def check(nodes, edges, tagger: str = "rule") -> None:
        gold = os.path.join(GOLDEN_DIR, "kg_{}_%s_sf0.0002.parquet" % tagger)
        want_n = _nodes_frame(gold.format("nodes"))
        got_n = _nodes_frame(nodes)
        assert got_n.equals(want_n), (got_n.head(), want_n.head())
        want_e = _edges_frame(gold.format("edges"))
        got_e = _edges_frame(edges)
        assert got_e.equals(want_e), (got_e.head(), want_e.head())

    return check
