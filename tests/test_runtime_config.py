"""Skew utilities, GloVe IO, config loader tests."""

from __future__ import annotations

import numpy as np
import pytest
import ray.data as rd

from neuroner_ray.config import PipelineConfig
from neuroner_ray.runtime.skew import heavy_hitters, salted_count
from neuroner_ray.sources.glove import (
    load_embeddings,
    load_token_set,
    write_fixture_embeddings,
)


def test_heavy_hitters_census():
    rows = [{"k": "hot"}] * 50 + [{"k": f"cold{i}"} for i in range(20)]
    ds = rd.from_items(rows)
    top = heavy_hitters(ds, "k", top_k=3)
    assert top[0] == ("hot", 50)
    assert all(n == 1 for _, n in top[1:])


def test_salted_count_matches_naive():
    rows = [{"k": "hot"}] * 37 + [{"k": "warm"}] * 5 + [{"k": "cold"}]
    ds = rd.from_items(rows)
    out = salted_count(ds, "k", hot_keys={"hot"}, num_salts=4).to_pandas()
    got = dict(zip(out["k"], out["n"]))
    assert got == {"hot": 37, "warm": 5, "cold": 1}


def test_glove_round_trip(tmp_path):
    p = str(tmp_path / "glove.mini.txt")
    toks = ["alpha", "Beta", "r2d2"]
    write_fixture_embeddings(p, toks, dim=10)
    emb = load_embeddings(p)
    assert set(emb) == set(toks)
    assert emb["alpha"].shape == (10,)
    assert emb["alpha"].dtype == np.float32
    # deterministic: same token → same vector on rewrite
    p2 = str(tmp_path / "g2.txt")
    write_fixture_embeddings(p2, ["alpha"], dim=10)
    assert np.allclose(load_embeddings(p2)["alpha"], emb["alpha"])
    assert load_token_set(p) == set(toks)


def test_glove_skips_malformed(tmp_path):
    p = str(tmp_path / "bad.txt")
    with open(p, "w") as f:
        f.write("good 1.0 2.0\nbadline\nalso bad x y\n")
    emb = load_embeddings(p)
    assert set(emb) == {"good"}


def test_config_ini_and_validation(tmp_path):
    ini = tmp_path / "parameters.ini"
    ini.write_text(
        "[training]\nlearning_rate = 0.01\npatience = 5\n"
        "[advanced]\ntagging_format = bio\n[mode]\ntrain_model = true\n"
    )
    cfg = PipelineConfig.from_ini(str(ini))
    assert cfg.learning_rate == 0.01
    assert cfg.patience == 5
    assert cfg.tagging_format == "bio"
    assert cfg.train_model is True
    cfg2 = PipelineConfig.from_ini(str(ini), overrides={"patience": 9})
    assert cfg2.patience == 9
    # an INI from before the one tagging cap still loads: unknown keys
    # (here the dropped tagger_concurrency_min) are ignored
    old = tmp_path / "old.ini"
    old.write_text(
        "[ray]\ntagger_concurrency_min = 6\ntagger_concurrency_max = 3\n"
    )
    assert PipelineConfig.from_ini(str(old)).tagger_concurrency_max == 3
    with pytest.raises(ValueError):
        PipelineConfig(tagging_format="wrong").validate()
    with pytest.raises(ValueError):
        PipelineConfig(dropout_rate=1.5).validate()
