"""The streamed engine: frozen goldens under both taggers and both
finalize regimes, plus its invariants."""

from __future__ import annotations

import os

import pytest

from neuroner_ray.pipelines.kg_streamed import run_pipeline_streamed
from neuroner_ray.sources import synth_transcripts as synth


@pytest.fixture(scope="module")
def tpath():
    return os.path.join(synth.ensure_transcripts(0.0002), "transcripts")


def _nodes_norm(ds):
    df = ds.to_pandas().sort_values("entity_id").reset_index(drop=True)
    df["surfaces"] = df["surfaces"].map(tuple)
    return df


def _edges_norm(ds):
    df = ds.to_pandas().sort_values(["src_id", "dst_id", "pred"]).reset_index(
        drop=True
    )
    df["provenance"] = df["provenance"].map(
        lambda ps: tuple((p["conv_id"], p["turn_idx"]) for p in ps)
    )
    return df


@pytest.mark.parametrize(
    "tagger, finalize",
    [
        ("rule", "driver"),
        ("rule", "distributed"),
        ("neural", "driver"),
        ("neural", "distributed"),
    ],
    ids=lambda v: v,
)
def test_streamed_equals_golden(tpath, assert_golden_graph, monkeypatch, tagger, finalize):
    """Nodes (with surfaces) and edges (with provenance) equal the frozen
    goldens. Under the NEURAL tagger this also guards the per-batch
    sequence dedup (tag results must not depend on batch composition or
    arrival order); ``SMALL_INPUT_TURNS_MAX=0`` forces the distributed
    finalize."""
    import neuroner_ray.pipelines.kg_streamed as ks
    from neuroner_ray.stages.neural_tagger import NeuralTagger

    kwargs = {}
    if tagger == "neural":
        ckpt = os.path.join(os.path.dirname(__file__), "fixtures", "checkpoint")
        kwargs = {"tagger": NeuralTagger, "tagger_args": (ckpt,), "batch_size": 64}
    if finalize == "distributed":
        monkeypatch.setattr(ks, "SMALL_INPUT_TURNS_MAX", 0)
    streamed = run_pipeline_streamed(tpath, **kwargs)
    assert_golden_graph(streamed["nodes"], streamed["edges"], tagger)


def test_streamed_distributed_finalize_equals_driver(tpath, monkeypatch):
    import neuroner_ray.pipelines.kg_streamed as ks

    driver = run_pipeline_streamed(tpath)
    monkeypatch.setattr(ks, "SMALL_INPUT_TURNS_MAX", 0)
    dist = run_pipeline_streamed(tpath)
    assert _nodes_norm(driver["nodes"]).equals(_nodes_norm(dist["nodes"]))
    assert _edges_norm(driver["edges"]).equals(_edges_norm(dist["edges"]))


def test_distributed_finalize_over_multi_file_stage(tpath, tmp_path, monkeypatch):
    """The disk stage is cut into files of ``STAGE_ROWS_PER_FILE`` rows and
    read back one block per file: a stage of several files builds the same
    graph as a stage of one."""
    import neuroner_ray.pipelines.kg_streamed as ks

    def stage_files(run):
        d = tmp_path / run / "_stage" / "partials"
        return [f for f in os.listdir(d) if f.endswith(".parquet")]

    monkeypatch.setattr(ks, "SMALL_INPUT_TURNS_MAX", 0)
    one = run_pipeline_streamed(tpath, out_dir=str(tmp_path / "one"), batch_size=128)
    monkeypatch.setattr(ks, "STAGE_ROWS_PER_FILE", 200)
    many = run_pipeline_streamed(tpath, out_dir=str(tmp_path / "many"), batch_size=128)
    assert len(stage_files("one")) == 1
    assert len(stage_files("many")) > 1
    assert _nodes_norm(one["nodes"]).equals(_nodes_norm(many["nodes"]))
    assert _edges_norm(one["edges"]).equals(_edges_norm(many["edges"]))


def test_partial_schema_is_fixed_width():
    """The 100-TB guarantee: partials are slim fixed-width rows — no nested
    / list payloads that could grow with corpus size (VERDICT r2 #1)."""
    import pyarrow.types as pt

    from neuroner_ray.pipelines.kg_streamed import _PARTIAL_SCHEMA

    for field in _PARTIAL_SCHEMA:
        assert not pt.is_nested(field.type), field


def test_streamed_source_never_materializes_partials():
    """The corpus-pass output must stream (to the driver or to the disk
    stage), never pin in the object store: no `.materialize()` call may
    touch the partials dataset in run_pipeline_streamed, nor the resolved
    instances or edge partials in graph.aggregate_edges, its edge stage."""
    import inspect

    import neuroner_ray.pipelines.kg_streamed as ks
    from neuroner_ray.stages import graph

    for fn in (ks.run_pipeline_streamed, ks.finalize_distributed, graph.aggregate_edges):
        src = inspect.getsource(fn)
        assert "partials.materialize" not in src, fn.__name__
        assert "resolved.materialize" not in src, fn.__name__
    assert "finalize_distributed(" in inspect.getsource(ks.run_pipeline_streamed)
    assert "aggregate_edges(" in inspect.getsource(ks.finalize_distributed)


def test_same_turn_alias_variants_dedup_to_one_edge(tmp_path):
    """O5 regression: two surface variants of the same canonical triple in
    ONE turn must produce edge weight 1, identically in both finalize
    regimes."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    text = "Alice Johnson works at Acme Corp . alice johnson works at ACME ."
    t = pa.table(
        {
            "conv_id": ["c1"],
            "turn_idx": pa.array([0], pa.int32()),
            "role": ["user"],
            "text": [text],
            "tool": [""],
            "ts": pa.array([0], pa.timestamp("us")),
        }
    )
    src = tmp_path / "tr"
    src.mkdir()
    pq.write_table(t, str(src / "p.parquet"))
    import neuroner_ray.pipelines.kg_streamed as ks

    driver = run_pipeline_streamed(str(src))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ks, "SMALL_INPUT_TURNS_MAX", 0)
        dist = run_pipeline_streamed(str(src))
    a = _edges_norm(driver["edges"])
    b = _edges_norm(dist["edges"])
    assert a.equals(b), (a, b)
    row = b[b["pred"] == "works_at"].iloc[0]
    assert row["weight"] == 1  # same (conv, turn) counted once
    assert len(row["provenance"]) == 1


def test_streamed_output_invariant_to_batch_size(tpath):
    """Partial aggregation must be batching-invariant: tiny batches and big
    batches produce byte-identical graphs."""
    small = run_pipeline_streamed(tpath, batch_size=64)
    big = run_pipeline_streamed(tpath, batch_size=4096)
    assert _nodes_norm(small["nodes"]).equals(_nodes_norm(big["nodes"]))
    assert _edges_norm(small["edges"]).equals(_edges_norm(big["edges"]))


def test_streamed_handles_edge_free_and_mention_free_corpora(tmp_path):
    """The driver finalize must survive degenerate corpora (review finding:
    pd.concat/pa.concat_tables over empty lists raised)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    cases = {
        # mentions but no lexicon-matching gaps → nodes, zero edges
        "edge_free": ["Alice Johnson said hello .", "Paris is lovely ."],
        # no gazetteer hits at all → zero nodes, zero edges
        "mention_free": ["nothing to see here .", "entirely plain text ."],
    }
    expected_nodes = {"edge_free": 2, "mention_free": 0}
    for name, texts in cases.items():
        d = tmp_path / name
        d.mkdir()
        tab = pa.table(
            {
                "conv_id": pa.array(["c0"] * len(texts), pa.string()),
                "turn_idx": pa.array(range(len(texts)), pa.int32()),
                "role": pa.array(["user"] * len(texts), pa.string()),
                "text": pa.array(texts, pa.string()),
                "tool": pa.array([""] * len(texts), pa.string()),
                "ts": pa.array([0] * len(texts), pa.timestamp("us")),
            }
        )
        pq.write_table(tab, str(d / "part-0.parquet"))
        out = str(tmp_path / f"{name}_graph")
        streamed = run_pipeline_streamed(str(d), out_dir=out)
        assert streamed["nodes"].count() == expected_nodes[name], name
        assert streamed["edges"].count() == 0, name
        assert pq.read_table(os.path.join(out, "nodes")).num_rows == expected_nodes[name]
        assert pq.read_table(os.path.join(out, "edges")).num_rows == 0


def test_streamed_distributed_handles_degenerate_corpora(tmp_path, monkeypatch):
    """The distributed finalize must survive edge-free and mention-free
    corpora too — empty filtered reads flow into groupbys — both on the
    streamed disk stage and on the bucket tables of ``run_bucketed`` +
    ``finalize_graph`` (whose empty graph tables must still be written).
    The bucket tables of a mention-free corpus are typed empty files, so
    their reads raise no RuntimeWarning (a read of a directory holding no
    parquet file makes Ray average an empty sample)."""
    import warnings

    import pyarrow as pa
    import pyarrow.parquet as pq

    import neuroner_ray.pipelines.kg_streamed as ks
    from neuroner_ray.pipelines import kg, manifests

    monkeypatch.setattr(ks, "SMALL_INPUT_TURNS_MAX", 0)
    cases = {
        "edge_free": ["Alice Johnson said hello .", "Paris is lovely ."],
        "mention_free": ["nothing to see here .", "entirely plain text ."],
    }
    expected_nodes = {"edge_free": 2, "mention_free": 0}
    for name, texts in cases.items():
        d = tmp_path / name
        d.mkdir()
        tab = pa.table(
            {
                "conv_id": pa.array(["c0"] * len(texts), pa.string()),
                "turn_idx": pa.array(range(len(texts)), pa.int32()),
                "role": pa.array(["user"] * len(texts), pa.string()),
                "text": pa.array(texts, pa.string()),
                "tool": pa.array([""] * len(texts), pa.string()),
                "ts": pa.array([0] * len(texts), pa.timestamp("us")),
            }
        )
        pq.write_table(tab, str(d / "part-0.parquet"))
        streamed = run_pipeline_streamed(str(d))
        assert streamed["nodes"].count() == expected_nodes[name], name
        assert streamed["edges"].count() == 0, name
        out = str(tmp_path / f"{name}_bucketed")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            manifests.run_bucketed(str(d), out, kg.turn_tables, {"v": 1}, num_buckets=2)
            fin = manifests.finalize_graph(out, {"v": 1})
            assert fin["n_nodes"] == expected_nodes[name], name
            assert manifests.read_output(out, "nodes").count() == expected_nodes[name], name
            assert manifests.read_output(out, "edges").count() == 0, name
