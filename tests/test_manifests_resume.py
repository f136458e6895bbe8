"""Resume-from-manifest equivalence (SURVEY.md §5 invariant tests)."""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from neuroner_ray.pipelines import kg, manifests
from neuroner_ray.sources import synth_transcripts as synth


CONFIG = {"tagger": "rule", "version": 1}


@pytest.fixture(scope="module")
def tpath():
    d = synth.ensure_transcripts(0.0002)
    return os.path.join(d, "transcripts")


def test_resume_skips_completed_and_matches_full_run(tpath, tmp_path):
    out_a = str(tmp_path / "full")
    r1 = manifests.run_bucketed(tpath, out_a, kg.turn_tables, CONFIG, num_buckets=4)
    assert sorted(r1["processed"]) == [0, 1, 2, 3]
    # simulate a killed run: copy only 2 completed buckets' outputs+manifests
    out_b = str(tmp_path / "partial")
    for table in ("mentions", "triples"):
        for b in (0, 2):
            src = os.path.join(out_a, table, f"bucket={b}")
            dst = os.path.join(out_b, table, f"bucket={b}")
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            import shutil

            shutil.copytree(src, dst)
    os.makedirs(manifests.manifest_dir(out_b), exist_ok=True)
    for b in (0, 2):
        import shutil

        shutil.copy(
            os.path.join(manifests.manifest_dir(out_a), f"bucket={b}.json"),
            os.path.join(manifests.manifest_dir(out_b), f"bucket={b}.json"),
        )
    r2 = manifests.run_bucketed(tpath, out_b, kg.turn_tables, CONFIG, num_buckets=4)
    assert sorted(r2["skipped"]) == [0, 2]
    assert sorted(r2["processed"]) == [1, 3]
    # resumed output identical to the full run
    for table in ("mentions", "triples"):
        a = (
            manifests.read_output(out_a, table)
            .to_pandas()
            .sort_values(list(manifests.read_output(out_a, table).schema().names))
            .reset_index(drop=True)
        )
        b = (
            manifests.read_output(out_b, table)
            .to_pandas()
            .sort_values(list(a.columns))
            .reset_index(drop=True)
        )
        assert a.equals(b), table


def test_config_change_invalidates_manifests(tpath, tmp_path):
    out = str(tmp_path / "cfg")
    manifests.run_bucketed(tpath, out, kg.turn_tables, CONFIG, num_buckets=2)
    r = manifests.run_bucketed(
        tpath, out, kg.turn_tables, {**CONFIG, "version": 2}, num_buckets=2
    )
    assert r["skipped"] == []  # old manifests don't match the new config hash
    assert sorted(r["processed"]) == [0, 1]


def test_manifest_contents(tpath, tmp_path):
    out = str(tmp_path / "m")
    manifests.run_bucketed(tpath, out, kg.turn_tables, CONFIG, num_buckets=2)
    with open(os.path.join(manifests.manifest_dir(out), "bucket=0.json")) as f:
        m = json.load(f)
    assert m["row_counts"]["input_turns"] > 0
    assert m["row_counts"]["mentions"] > 0
    assert m["output_files"]["triples"]
    assert m["wall_sec"] > 0


def test_finalize_graph_is_global_and_consistent(tpath, tmp_path, assert_golden_graph):
    """Nodes/edges from the bucketed flow must equal the single-run graph
    (the frozen golden, surfaces and provenance included): unique entity
    ids, summed edge weights, one canonical rep per cluster."""
    out = str(tmp_path / "two_phase")
    manifests.run_bucketed(tpath, out, kg.turn_tables, CONFIG, num_buckets=4)
    r = manifests.finalize_graph(out, CONFIG)
    assert not r["skipped"]
    assert_golden_graph(f"{out}/nodes", f"{out}/edges")
    # idempotent: second finalize with same buckets+config skips
    assert manifests.finalize_graph(out, CONFIG)["skipped"]


def test_finalize_census_reads_only_type_and_surface(tpath, tmp_path, monkeypatch):
    """The census input of ``finalize_graph`` holds exactly the two columns
    it counts, not every MENTIONS column of every bucket."""
    out = str(tmp_path / "census")
    manifests.run_bucketed(tpath, out, kg.turn_tables, CONFIG, num_buckets=1)
    reads = {}
    read_output = manifests.read_output

    def spy(out_dir, table, **kwargs):
        reads[table] = read_output(out_dir, table, **kwargs)
        return reads[table]

    monkeypatch.setattr(manifests, "read_output", spy)
    manifests.finalize_graph(out, CONFIG)
    assert reads["mentions"].schema().names == ["ent_type", "surface"]


def test_refinalize_replaces_rather_than_appends(tpath, tmp_path):
    """A re-finalize (e.g. after a config change) must REPLACE nodes/edges,
    not mix files from two executions (round-1 advice: materialize_graph
    appends uniquely-named files)."""
    out = str(tmp_path / "refin")
    manifests.run_bucketed(tpath, out, kg.turn_tables, CONFIG, num_buckets=2)
    manifests.finalize_graph(out, CONFIG)
    import ray.data as rd

    n1 = rd.read_parquet(f"{out}/nodes").count()
    e1 = rd.read_parquet(f"{out}/edges").count()
    # force a re-finalize by deleting the finalize manifest
    os.remove(os.path.join(manifests.manifest_dir(out), "finalize.json"))
    r = manifests.finalize_graph(out, CONFIG)
    assert not r["skipped"]
    assert rd.read_parquet(f"{out}/nodes").count() == n1
    assert rd.read_parquet(f"{out}/edges").count() == e1


def test_bucketed_input_staged_once_and_reused(tpath, tmp_path):
    """The input is bucket-partitioned to disk ONCE (no corpus-sized
    object-store materialization) and the staging is reused on resume."""
    out = str(tmp_path / "staged")
    manifests.run_bucketed(tpath, out, kg.turn_tables, CONFIG, num_buckets=2)
    staged = os.path.join(out, "_bucketed")
    assert os.path.isdir(os.path.join(staged, "bucket=0"))
    marker = os.path.join(staged, "_DONE")
    mtime = os.path.getmtime(marker)
    # resume (all buckets done): staging must not be rebuilt
    r = manifests.run_bucketed(tpath, out, kg.turn_tables, CONFIG, num_buckets=2)
    assert r["processed"] == []
    assert os.path.getmtime(marker) == mtime
    # changing num_buckets invalidates the staging key
    manifests.run_bucketed(tpath, out, kg.turn_tables, CONFIG, num_buckets=4)
    assert os.path.isdir(os.path.join(staged, "bucket=3"))


def test_incremental_ingest_equals_full_build(tpath, tmp_path, assert_golden_graph):
    """run_incremental (two conversation-disjoint arrivals through the
    bucket machinery, global re-finalize after each) must produce the same
    nodes/edges as a from-scratch single run (the frozen golden), and a
    re-run must skip every bucket and the finalize."""
    out = str(tmp_path / "incr")
    res = kg.run_incremental(tpath, out, num_increments=2, num_buckets=2)
    tags = [t for inc in res["increments"] for t in inc["processed"]]
    assert sorted(tags) == ["inc0.0", "inc0.1", "inc1.0", "inc1.1"]
    assert not any(inc["finalize_skipped"] for inc in res["increments"])

    assert_golden_graph(res["nodes"], res["edges"])

    # resume: nothing re-processed, finalize skipped for both arrivals
    res2 = kg.run_incremental(tpath, out, num_increments=2, num_buckets=2)
    assert all(inc["processed"] == [] for inc in res2["increments"])
    assert all(inc["finalize_skipped"] for inc in res2["increments"])


def test_increment_namespaces_do_not_collide(tpath, tmp_path):
    """An increment ingest into an out_dir with legacy (un-namespaced)
    buckets must neither skip because of them nor disturb them."""
    out = str(tmp_path / "ns")
    r1 = manifests.run_bucketed(tpath, out, kg.turn_tables, CONFIG, num_buckets=2)
    assert sorted(r1["processed"]) == [0, 1]
    r2 = manifests.run_bucketed(
        tpath, out, kg.turn_tables, CONFIG, num_buckets=2, increment="day2"
    )
    assert r2["processed"] == ["day2.0", "day2.1"]
    assert r2["skipped"] == []
    # legacy manifests still intact and counted separately
    done = manifests.completed_buckets(out, manifests.config_hash(CONFIG))
    assert done == {0, 1, "day2.0", "day2.1"}


def test_incremental_split_change_invalidates_and_stays_correct(
    tpath, tmp_path, assert_golden_graph
):
    """Re-running run_incremental into the same out_dir with a DIFFERENT
    arrival split must not reuse buckets produced under the old split
    (conversations that moved between increments would be double-counted);
    the result must still equal the from-scratch build."""
    out = str(tmp_path / "resplit")
    kg.run_incremental(tpath, out, num_increments=2, num_buckets=2)
    res = kg.run_incremental(tpath, out, num_increments=3, num_buckets=2)
    # every new-split bucket was processed, none skipped via stale manifests
    assert all(inc["skipped"] == [] for inc in res["increments"])
    assert_golden_graph(res["nodes"], res["edges"])
    # shrink back to 2-way: stale inc2.* bucket dirs linger on disk but the
    # finalize must only read manifest-listed buckets
    res2 = kg.run_incremental(tpath, out, num_increments=2, num_buckets=2)
    assert_golden_graph(res2["nodes"], res2["edges"])
