"""CLI entry — the ``ray job submit`` surface (north_rule lifecycle).

    python -m neuroner_ray --input /path/transcripts --output /tmp/graph \
        [--config parameters.ini] [--tagger rule|neural] [--buckets 8] \
        [--num-cpus 32]

Runs the resumable bucketed KG pipeline (lineage manifests; rerunning skips
completed buckets) and writes ``results.json`` (SURVEY.md S7) into the
output directory. This is the only module in the package allowed to call
``ray.init`` — and only when no session exists (``ray job submit`` /
driver-owned sessions are respected).
"""

from __future__ import annotations

import argparse
import json
import os
import time


def main() -> int:
    ap = argparse.ArgumentParser(prog="neuroner_ray")
    ap.add_argument("--input", required=True, help="transcripts parquet dir")
    ap.add_argument("--output", required=True, help="output graph dir")
    ap.add_argument("--config", default=None, help="parameters.ini path")
    ap.add_argument("--tagger", choices=("rule", "neural"), default="rule")
    ap.add_argument("--checkpoint", default="tests/fixtures/checkpoint")
    ap.add_argument("--buckets", type=int, default=8)
    ap.add_argument("--num-cpus", type=int, default=None)
    args = ap.parse_args()

    import os

    import ray

    if not ray.is_initialized():
        # respect an existing cluster (`ray job submit` sets RAY_ADDRESS);
        # a hardcoded address="local" would spin up a nested single-node
        # Ray inside the job container and silently ignore the cluster.
        # num_cpus is only meaningful when WE start the local instance.
        address = os.environ.get("RAY_ADDRESS", "local")
        kwargs = {"num_cpus": args.num_cpus} if address == "local" else {}
        ray.init(
            address=address,
            include_dashboard=False,
            logging_level="ERROR",
            **kwargs,
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from .config import PipelineConfig
    from .pipelines import kg, manifests
    from .stages.neural_tagger import NeuralTagger
    from .stages.tagger import RuleTagger

    cfg = (
        PipelineConfig.from_ini(args.config) if args.config else PipelineConfig()
    )
    tagger = NeuralTagger if args.tagger == "neural" else RuleTagger
    tagger_args = (args.checkpoint,) if args.tagger == "neural" else ()

    def table_fn(transcripts):
        # per-bucket outputs are PER-TURN tables only — canonicalization is
        # global and happens once in finalize_graph (per-bucket node/edge
        # tables would elect bucket-dependent canonical representatives)
        return kg.turn_tables(
            transcripts,
            tagger=tagger,
            tagger_args=tagger_args,
            concurrency=cfg.tagger_concurrency_max,
            batch_size=cfg.tagger_batch_size,
        )

    t0 = time.time()
    config_payload = {"tagger": args.tagger, "checkpoint": args.checkpoint}
    result = manifests.run_bucketed(
        args.input, args.output, table_fn, config_payload, num_buckets=args.buckets
    )
    finalize = manifests.finalize_graph(args.output, config_payload)
    wall = time.time() - t0
    results = {  # S7 results sink (reference: evaluate.py::save_results)
        "input": args.input,
        "output": args.output,
        "tagger": args.tagger,
        "buckets_processed": result["processed"],
        "buckets_skipped": result["skipped"],
        "finalize": finalize,
        "wall_sec": round(wall, 3),
    }
    with open(os.path.join(args.output, "results.json"), "w") as f:
        json.dump(results, f, indent=1)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
