"""Neural-tagger parity tests (SURVEY.md §7 step 3).

The frozen fixture checkpoint (tests/fixtures/checkpoint) stands in for the
reference's trained_models/ artifact: the actor-pool tagger must reproduce
the gold annotation on held-out conversations (conlleval F1) and yield
triple P/R >= 0.95 vs gold through the full pipeline (north_rule gate).
"""

from __future__ import annotations

import os

import pyarrow.parquet as pq
import pytest

from neuroner_ray.functions.conlleval import evaluate
from neuroner_ray.pipelines import kg
from neuroner_ray.sources import synth_transcripts as synth
from neuroner_ray.stages.neural_tagger import NeuralTagger
from neuroner_ray.state.train import make_corpus, predict
from neuroner_ray.state.checkpoint import load_checkpoint

CKPT = os.path.join(os.path.dirname(__file__), "fixtures", "checkpoint")


@pytest.fixture(scope="module")
def fixture_dir():
    return synth.ensure_transcripts(0.0002)


def test_heldout_conlleval_f1():
    """Held-out sentences (conversations far outside the train range)."""
    params, vocab = load_checkpoint(CKPT)
    sents, gold = make_corpus(30, first_conv=20000)
    from neuroner_ray.functions.labels import bioes_to_bio

    preds = [bioes_to_bio(predict(params, vocab, s)) for s in sents]
    m = evaluate(gold, preds)
    assert m["fb1"] >= 99.0, m["fb1"]


def test_neural_pipeline_triple_pr(fixture_dir):
    tr = kg.read_transcripts(os.path.join(fixture_dir, "transcripts"))
    got = kg.turn_tables(tr, tagger=NeuralTagger, tagger_args=(CKPT,))["triples"].to_pandas()
    gold = pq.read_table(os.path.join(fixture_dir, "gold_triples.parquet"))
    cols = ["conv_id", "turn_idx", "subj", "pred", "obj", "subj_type", "obj_type"]
    got_set = set(map(tuple, got[cols].itertuples(index=False)))
    gold_set = set(zip(*[gold.column(c).to_pylist() for c in cols]))
    tp = len(got_set & gold_set)
    precision = tp / max(1, len(got_set))
    recall = tp / max(1, len(gold_set))
    assert precision >= 0.95 and recall >= 0.95, (precision, recall)


def test_gpu_seam_builds_lazy_plan(fixture_dir, monkeypatch):
    """num_gpus plumbs through to the tagging stage as a lazy plan (no
    execution — a CPU-only box would otherwise wait forever for a GPU;
    ``materialize`` is stubbed to return the plan), and that stage is a
    task stage on the warm worker pool capped at the concurrency's max,
    not an actor pool started per call. Guards the kwargs pass-through in
    turn_tables."""
    import ray.data as rd

    from ray.data import Dataset
    from ray.data._internal.compute import TaskPoolStrategy

    monkeypatch.setattr(Dataset, "materialize", lambda self: self)
    tr = rd.from_items(
        [{"conv_id": "c0", "turn_idx": 0, "role": "user",
          "text": "hello", "tool": "", "ts": 0}]
    )
    for concurrency, cap in (((1, 4), 4), (3, 3)):
        out = kg.turn_tables(
            tr, tagger=NeuralTagger, tagger_args=(CKPT,),
            concurrency=concurrency, num_gpus=1,
        )
        for table in out.values():  # plans built; never executed
            op = table._logical_plan.dag
            while "MapBatches" not in op.name:  # below the split's filter/project
                op = op.input_dependencies[0]
            assert op.name == f"MapBatches({kg.annotate_batch.__name__})", op.name
            assert op._ray_remote_args.get("num_gpus") == 1, op._ray_remote_args
            assert op._compute == TaskPoolStrategy(size=cap), op._compute
