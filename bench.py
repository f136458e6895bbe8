"""Benchmark harness (driver contract: prints ONE JSON line).

Headline: full KG-construction pipeline (transcripts → nodes/edges) at the
scale matching ``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1), plus the
representative operator queries. ``--scaling`` runs the headline pipeline in
fresh processes at num_cpus=4 and num_cpus=16 (N and 4N) on the same input
(at 3x the transcripts scale so fixed per-execution costs amortize; see
BENCH/BASELINE.md) and reports throughput at both plus the scaling
efficiency — the sandbox stand-in for the north_rule's N vs 4N cluster
criterion (32 real cores on this host; levels never overlap).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def run_bench(sf_dir: str, num_cpus: int) -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    # optional block-size override for the width sweep (BENCH/BASELINE.md
    # round-3 width table: a wash on an uncontended host; finer 32MB blocks
    # measured ~26% better only under co-tenant degradation, where finer
    # actor-feed granularity masks stolen cores). Unset = Ray default.
    block_mb = os.environ.get("GRAFT_BLOCK_MB")
    if block_mb:
        DataContext.get_current().target_max_block_size = (
            int(block_mb) * 1024 * 1024
        )

    from neuroner_ray.pipelines import curate, kg
    from neuroner_ray.pipelines import queries as q
    from neuroner_ray.sources.synth_transcripts import (
        sf_of_dir,
        transcripts_dir_for,
    )

    sf = sf_of_dir(sf_dir) * float(os.environ.get("GRAFT_SF_MULT", "1"))
    from neuroner_ray.sources.synth_transcripts import ensure_transcripts

    tdir = os.path.join(ensure_transcripts(sf), "transcripts")  # cached, untimed

    # warm the OS page cache so we measure compute+shuffle, not first disk
    # read. NB: a bare read_parquet().count() answers from parquet METADATA
    # without touching data pages (verified on Ray 2.49), so force a real
    # scan of every column through a row-counting map.
    import pyarrow as _pa

    n_turns = int(
        kg.read_transcripts(tdir)
        .map_batches(
            lambda t: _pa.table({"n": _pa.array([t.num_rows])}),
            batch_format="pyarrow",
        )
        .sum("n")
    )

    # warm the worker pool: a real cluster's raylets have their worker
    # processes alive before the job; spawning num_cpus python workers is a
    # fixed cost that would otherwise be charged (disproportionately to the
    # higher parallelism level) inside the timed region
    @ray.remote(num_cpus=1)
    def _warm():
        time.sleep(0.2)
        return 0

    ray.get([_warm.remote() for _ in range(num_cpus)])

    timings: dict[str, float] = {}

    # headline: the reference-faithful pipeline — BiLSTM-CRF tagger
    # (north_star's mention-detection core), triples, linking,
    # canonicalization, graph materialize
    from neuroner_ray.stages.neural_tagger import NeuralTagger

    ckpt = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "tests", "fixtures", "checkpoint_bench")
    from neuroner_ray.pipelines.kg_streamed import run_pipeline_streamed

    # tagging cap: at most 3/4 of the CPUs tag at once (the stage's tasks
    # run on the warm worker pool), the rest feed reads/reduces — the same
    # fraction at every parallelism level (fair scaling comparison)
    pool = max(2, (3 * num_cpus) // 4)
    out_dir = f"/tmp/bench_graph_sf{sf:g}_{num_cpus}"
    import shutil

    # cleanup OUTSIDE the timed region: deleting a previous run's bucketed
    # output tree is I/O the pipeline didn't cause
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    run_pipeline_streamed(
        tdir,
        out_dir=out_dir,
        tagger=NeuralTagger,
        tagger_args=(ckpt,),
        concurrency=(pool, pool),
        batch_size=4096,
    )
    headline = time.perf_counter() - t0
    timings["kg_pipeline"] = round(headline, 3)

    if os.environ.get("GRAFT_HEADLINE_ONLY") == "1":
        return {
            "metric": "kg_pipeline_wall_sec",
            "value": timings["kg_pipeline"],
            "unit": "sec",
            "queries": timings,
            "sf": sf,
            "num_cpus": num_cpus,
            "n_turns": n_turns,
            "turns_per_sec": round(n_turns / timings["kg_pipeline"], 1),
        }

    # graph analytics over the edges the headline run just wrote (10
    # power-method iterations streaming the edge table; vocabulary-sized
    # rank vector)
    from neuroner_ray.sources.parquet import read_parquet_clean
    from neuroner_ray.stages.graph import pagerank

    t0 = time.perf_counter()
    pagerank(
        read_parquet_clean(
            os.path.join(out_dir, "edges"),
            columns=["src_id", "dst_id", "weight"],
        )
    )
    timings["kg_pagerank"] = round(time.perf_counter() - t0, 3)

    # link prediction over the same edges (broadcast adjacency + local
    # top-k; weighted-wedge shuffle past the cap)
    from neuroner_ray.stages.graph import adamic_adar_topk

    t0 = time.perf_counter()
    for _ in adamic_adar_topk(
        read_parquet_clean(
            os.path.join(out_dir, "edges"),
            columns=["src_id", "dst_id", "weight"],
        )
    ).iter_batches(batch_size=None, batch_format="pyarrow"):
        pass
    timings["kg_adamic_adar"] = round(time.perf_counter() - t0, 3)

    # HITS hubs/authorities over the same edges (5 L1-normalized
    # iterations; size-adaptive driver/streamed/sharded regimes)
    from neuroner_ray.stages.graph import hits

    t0 = time.perf_counter()
    hits(
        read_parquet_clean(
            os.path.join(out_dir, "edges"),
            columns=["src_id", "dst_id", "weight"],
        )
    )
    timings["kg_hits"] = round(time.perf_counter() - t0, 3)

    # weighted SSSP + personalized PageRank over the same edges (both
    # size-adaptive; at this corpus both take the driver fast path)
    from neuroner_ray.stages.graph import pagerank, sssp

    t0 = time.perf_counter()
    sssp(
        read_parquet_clean(
            os.path.join(out_dir, "edges"),
            columns=["src_id", "dst_id", "weight"],
        )
    )
    timings["kg_sssp"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    pagerank(
        read_parquet_clean(
            os.path.join(out_dir, "edges"),
            columns=["src_id", "dst_id", "weight"],
        ),
        personalized=True,
    )
    timings["kg_ppr"] = round(time.perf_counter() - t0, 3)

    # secondary: the same engine with the gazetteer tagger
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    run_pipeline_streamed(tdir, out_dir=out_dir, concurrency=(1, num_cpus))
    timings["kg_pipeline_rule"] = round(time.perf_counter() - t0, 3)

    for name, fn in [
        ("token_freq_top100", q.token_freq_top100),
        ("dedup_exact", q.dedup_exact),
        ("events_hourly", q.events_hourly),
        ("similarity_topk", q.similarity_topk),
        ("lineitem_pricing", q.lineitem_pricing),
        ("doc_minhash_dedup", q.doc_minhash_dedup),
        ("doc_ngram_jaccard_pairs", q.doc_ngram_jaccard_pairs),
        ("curated_shard_counts", curate.curated_shard_counts),
        ("embedding_kmeans", q.embedding_kmeans),
        ("events_daily_retention", q.events_daily_retention),
        ("events_purchase_click_window", q.events_purchase_click_window),
        # NB: the MG sketch RAISES on corpora where exactness is unprovable
        # (its contract) — on this synthetic Zipfian corpus it always holds
        ("token_freq_top100_mg", q.token_freq_top100_mg),
        ("profit_by_nation_year", q.profit_by_nation_year),
        ("events_type_transitions", q.events_type_transitions),
        ("doc_unigram_logprob", q.doc_unigram_logprob),
        ("corpus_pmi_top50", q.corpus_pmi_top50),
        ("events_user_daily_gapfill", q.events_user_daily_gapfill),
        ("events_type_value_quantiles", q.events_type_value_quantiles),
        ("orders_above_customer_avg", q.orders_above_customer_avg),
        ("events_user_window_1h", q.events_user_window_1h),
        ("embedding_sq8", q.embedding_sq8),
        ("events_session_paths_top20", q.events_session_paths_top20),
        ("events_user_burst_max", q.events_user_burst_max),
        ("events_user_rfm_segments", q.events_user_rfm_segments),
        ("events_user_scd2", q.events_user_scd2),
        ("orders_fulfillment_lag", q.orders_fulfillment_lag),
        # batch 31+: distributed bigram-census join; orderkey cogroup
        ("doc_bigram_logprob", q.doc_bigram_logprob),
        ("orders_priority_late_q4", q.orders_priority_late_q4),
        # batch 34+: containment dedup (exact-recall shingle blocking),
        # winnowing fingerprints, windowed funnel, linear attribution
        ("doc_containment_pairs", q.doc_containment_pairs),
        ("doc_winnowing_fp", q.doc_winnowing_fp),
        ("events_windowed_funnel", q.events_windowed_funnel),
        ("events_attribution_linear", q.events_attribution_linear),
        # batch 41+: three-window funnel sweep (one shuffle), complete
        # TPC-H (Q2 integer-exact argmin), Zipf census fit
        ("events_funnel_window_sweep", q.events_funnel_window_sweep),
        ("part_mincost_supplier_q2", q.part_mincost_supplier_q2),
        ("corpus_zipf_fit", q.corpus_zipf_fit),
        # batch 44+: CDC snapshot diff (one keep-latest pass), stratified
        # exact-quota split (keyed histogram + boundary collect), lead-lag
        # xcorr, RRF fusion, zone-map audit
        ("events_snapshot_diff", q.events_snapshot_diff),
        ("doc_split_stratified", q.doc_split_stratified),
        ("events_hourly_xcorr", q.events_hourly_xcorr),
        ("events_user_rrf_top20", q.events_user_rrf_top20),
        ("lineitem_zonemap_skip", q.lineitem_zonemap_skip),
    ]:
        t0 = time.perf_counter()
        ds = fn(sf_dir)
        # consume without driver materialization of big data (driver-finish
        # queries return an already-computed pa.Table — nothing to stream)
        if hasattr(ds, "iter_batches"):
            for _ in ds.iter_batches(
                batch_size=65536, batch_format="pyarrow"
            ):
                pass
        timings[name] = round(time.perf_counter() - t0, 3)

    return {
        "metric": "kg_pipeline_wall_sec",
        "value": timings["kg_pipeline"],
        "unit": "sec",
        "queries": timings,
        "sf": sf,
        "num_cpus": num_cpus,
        "n_turns": n_turns,
        "turns_per_sec": round(n_turns / timings["kg_pipeline"], 1),
    }


def run_subprocess(ncpu: int, sf_dir: str, extra_env: dict | None = None) -> dict:
    env = dict(
        os.environ,
        RAY_GRAFT_CPUS=str(ncpu),
        GRAFT_SF_DIR=sf_dir,  # forward explicitly — the child reads env only
        **(extra_env or {}),
    )
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> None:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    if "--scaling" in sys.argv:
        # levels and input multiple are overridable so the N-vs-4N pair can
        # be placed where the host distorts least (4v16 leaves headroom for
        # co-tenants; 8v32 uses the full box) — both satisfy the 4x ratio
        lo = int(os.environ.get("GRAFT_SCALE_LO", "4"))
        hi = int(os.environ.get("GRAFT_SCALE_HI", "16"))
        mult = os.environ.get("GRAFT_SF_MULT", "3")
        # scaling protocol: headline pipeline only, on a multiple of the
        # transcripts scale — fixed per-execution costs (~2-3 s) amortize
        # with input size, so the measurement reflects the pipeline rather
        # than Ray session setup. Two fresh-process runs per level, min
        # taken (the host is shared; min = least-contended measurement).
        env = {"GRAFT_HEADLINE_ONLY": "1", "GRAFT_SF_MULT": mult}
        runs_lo = [run_subprocess(lo, sf_dir, env) for _ in range(2)]
        runs_hi = [run_subprocess(hi, sf_dir, env) for _ in range(2)]
        r_lo = min(runs_lo, key=lambda r: r["value"])
        r_hi = min(runs_hi, key=lambda r: r["value"])
        speedup = r_lo["value"] / r_hi["value"]
        eff = speedup / (hi / lo)
        print(
            json.dumps(
                {
                    "metric": "scaling_efficiency",
                    "value": round(eff, 3),
                    "unit": "fraction",
                    "num_cpus_lo": lo,
                    "num_cpus_hi": hi,
                    "sec_lo": r_lo["value"],
                    "sec_hi": r_hi["value"],
                    "turns_per_sec_lo": r_lo["turns_per_sec"],
                    "turns_per_sec_hi": r_hi["turns_per_sec"],
                    "speedup": round(speedup, 3),
                    "sf": r_lo["sf"],
                    "n_turns": r_lo["n_turns"],
                    "note": f"single host, 32 cores; N vs 4N evidenced as num_cpus={lo} vs {hi} in fresh processes, identical 3/4 tagging fraction, headline pipeline on {mult}x-scale transcripts",
                }
            )
        )
        return
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    result = run_bench(sf_dir, num_cpus)
    print(json.dumps(result))
    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
