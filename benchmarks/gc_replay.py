"""Replay catalog-federated in one process and time the garbage collector.

Builds the engine of perfbench's ``catalog-federated`` workload (the
same data, query catalogue and operation sequence), runs ``--ops``
operations back to back and records every collection through
``gc.callbacks``: how many ran in each generation and how long they
took, beside the operations' p50 and p99 latency and what the
collector tracks at the end. The answers are kept, as the benchmark
keeps them for grading. Prints one JSON line.

Pin it to one CPU for stable numbers; from the repository root:

    PYTHONPATH=src taskset -c 0 python benchmarks/gc_replay.py --ops 4000 --seed 1
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

# Import perfbench's workload modules without writing bytecode there.
sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from pb.catalog import (  # noqa: E402
    KS,
    build_subsystems,
    generate_catalogue,
    generate_data,
    generate_ops,
)
from pb.common import CONFIG  # noqa: E402

from repro.access.types import GradedItem  # noqa: E402
from repro.engine import Engine  # noqa: E402


def quantile(ordered: list[float], q: float) -> float:
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--data-seed", type=int, default=None)
    args = parser.parse_args()

    cfg = CONFIG["workloads"]["catalog-federated"]
    data_seed = CONFIG["data_seed"] if args.data_seed is None else args.data_seed
    catalogue = generate_catalogue(cfg, data_seed)
    engine = Engine()
    for subsystem in build_subsystems(generate_data(cfg, data_seed)):
        engine.register(subsystem)
    for i, queries in enumerate(catalogue):
        engine.query(queries[0]).top(KS[i % len(KS)])
    ops = generate_ops(catalogue, args.seed, args.ops)[: args.ops]

    collections = {0: 0, 1: 0, 2: 0}
    pause_s = {0: 0.0, 1: 0.0, 2: 0.0}
    started: list[float] = []

    def on_collect(phase: str, info: dict) -> None:
        if phase == "start":
            started.append(time.perf_counter())
        else:
            generation = info["generation"]
            collections[generation] += 1
            pause_s[generation] += time.perf_counter() - started.pop()

    gc.collect()
    gc.callbacks.append(on_collect)
    latencies: list[float] = []
    answers = []
    try:
        began = time.perf_counter()
        for query, k in ops:
            t0 = time.perf_counter()
            answers.append(engine.query(query).top(k).result.items)
            latencies.append(time.perf_counter() - t0)
        total_s = time.perf_counter() - began
    finally:
        gc.callbacks.remove(on_collect)

    tracked = gc.get_objects()
    latencies.sort()
    print(
        json.dumps(
            {
                "ops": len(ops),
                "seed": args.seed,
                "data_seed": data_seed,
                "total_ms": round(total_s * 1e3, 1),
                "p50_ms": round(quantile(latencies, 0.50) * 1e3, 3),
                "p99_ms": round(quantile(latencies, 0.99) * 1e3, 3),
                "gen2_collections": collections[2],
                "gen2_ms": round(pause_s[2] * 1e3, 1),
                "gen01_collections": collections[0] + collections[1],
                "gen01_ms": round((pause_s[0] + pause_s[1]) * 1e3, 1),
                "tracked_objects": len(tracked),
                "tracked_graded_items": sum(
                    1 for obj in tracked if type(obj) is GradedItem
                ),
            }
        )
    )


if __name__ == "__main__":
    main()
