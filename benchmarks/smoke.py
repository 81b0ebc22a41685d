"""Smoke benchmark: the whole engine surface, end to end, in ~30 s.

Exercises every execution path the unified Engine offers —

1. source-backed top-k with auto-selection and forced strategies,
   checked against ground truth;
2. cursor paging vs one-shot equivalence (Section 4's "continue where
   we left off");
3. batch execution with one summed cost ledger;
4. catalog-backed string queries over the federated CD store,
   including the filtered-conjunct and B0 plans, plus a batch whose
   shared atom is minted off the ranking caches;
5. one pipeline: explain(), top() and run_many() run the same
   algorithm, exact and under an ε-approximate contract

— and prints a wall-clock + access-cost summary. Exits non-zero on any
check failure, so CI can run it as a cheap end-to-end gate:

    PYTHONPATH=src python benchmarks/smoke.py
"""

import sys
import time

sys.path.insert(0, "src")

from repro import (  # noqa: E402
    ARITHMETIC_MEAN,
    Engine,
    ExecutionContext,
    MAXIMUM,
    MINIMUM,
    is_valid_top_k,
)
from repro.engine import capable_strategies, select_strategy  # noqa: E402
from repro.subsystems import (  # noqa: E402
    QbicSubsystem,
    RelationalSubsystem,
)
from repro.workloads import cd_store, independent_database  # noqa: E402

N = 20_000
K = 10


def check(label: str, condition: bool, failures: list) -> None:
    mark = "ok  " if condition else "FAIL"
    print(f"  [{mark}] {label}")
    if not condition:
        failures.append(label)


def main() -> int:
    failures: list = []
    started = time.perf_counter()

    # ------------------------------------------------------------- 1
    print(f"1. source-backed engine (m=2, N={N}, k={K})")
    db = independent_database(2, N, seed=7)
    engine = Engine.over(db)
    truth = db.overall_grades(MINIMUM)

    auto = engine.query(MINIMUM).top(K)
    check(
        f"auto-selection picked A0' ({auto.algorithm}), "
        f"{auto.stats.sum_cost} accesses vs naive {2 * N}",
        auto.algorithm == "A0-prime"
        and is_valid_top_k(auto.items, truth, K)
        and auto.stats.sum_cost < 2 * N,
        failures,
    )
    for name in ("fagin", "nra", "threshold", "naive"):
        result = engine.query(MINIMUM).strategy(name).top(K)
        check(
            f"strategy {name!r} valid top-{K} "
            f"({result.stats.sum_cost} accesses)",
            is_valid_top_k(result.items, truth, K),
            failures,
        )

    # ------------------------------------------------------------- 2
    print("2. cursor paging vs one-shot")
    for k in (1, 5, 20):
        one_shot = engine.query(MINIMUM).top(k)
        cursor = engine.query(MINIMUM).cursor()
        paged = []
        while len(paged) < k:
            paged.extend(cursor.next_k(min(3, k - len(paged))).items)
        check(
            f"k={k}: paged set == one-shot set",
            {i.obj for i in paged} == {i.obj for i in one_shot.items},
            failures,
        )

    # ------------------------------------------------------------- 3
    print("3. batch execution (one summed ledger)")
    batch = engine.run_many([MINIMUM, ARITHMETIC_MEAN, MAXIMUM], k=K)
    per_query = sum(a.stats.sum_cost for a in batch)
    check(
        f"batch total {batch.total_accesses} == sum of per-query costs "
        f"{per_query}",
        batch.total_accesses == per_query and len(batch) == 3,
        failures,
    )

    # ------------------------------------------------------------- 4
    print("4. catalog-backed engine (federated CD store)")
    albums = cd_store(300, seed=3)
    fed = Engine()
    fed.register(
        RelationalSubsystem(
            "store-db",
            {
                a.album_id: {"Artist": a.artist, "Genre": a.genre}
                for a in albums
            },
        )
    )
    fed.register(
        QbicSubsystem(
            "qbic",
            {"AlbumColor": {a.album_id: a.cover_rgb for a in albums}},
        )
    )
    beatles = fed.query(
        '(Artist = "Beatles") AND (AlbumColor ~ "red")'
    ).top(3)
    check(
        f"filtered-conjunct plan, k=3 "
        f"({beatles.result.stats.sum_cost} accesses)",
        type(beatles.plan).__name__ == "FilteredConjunctPlan"
        and beatles.result.k == 3,
        failures,
    )
    disj = fed.query(
        '(AlbumColor ~ "red") OR (AlbumColor ~ "blue")'
    ).top(5)
    check(
        "disjunction ran B0 at m*k sorted accesses",
        disj.result.algorithm == "B0" and disj.result.stats.sum_cost == 10,
        failures,
    )
    before = fed.metrics_snapshot()["cache_totals"]
    fed.run_many(
        [
            '(Artist = "Beatles") AND (AlbumColor ~ "red")',
            '(Genre = "jazz") AND (AlbumColor ~ "red")',
        ],
        k=3,
    )
    after = fed.metrics_snapshot()["cache_totals"]
    hits = after["hits"] - before["hits"]
    check(
        f"batch minted cached rankings "
        f"({hits} hits, {after['misses'] - before['misses']} misses)",
        hits >= 1,
        failures,
    )

    # ------------------------------------------------------------- 5
    print("5. one pipeline: explain(), top() and run_many() agree")
    text = '(AlbumColor ~ "red") AND (AlbumColor ~ "blue")'
    for epsilon in (0.0, 0.1):
        approx = Engine(ExecutionContext(epsilon=epsilon))
        for subsystem in fed.catalog.subsystems:
            approx.register(subsystem)
        one = approx.query(text).top(K)
        member = approx.run_many([text], k=K)[0]
        check(
            f"ε={epsilon:g}: explain() and run_many() name/run "
            f"{one.result.algorithm}",
            f"[{one.result.algorithm}]" in approx.explain(text)
            and member.result.algorithm == one.result.algorithm
            and member.result.stats == one.result.stats,
            failures,
        )

    # registry sanity, no execution
    check(
        "registry: capability filter excludes RA strategies without RA",
        "fagin" not in capable_strategies(MINIMUM, 2, random_access=False)
        and select_strategy(MINIMUM, 2, random_access=False).name == "NRA",
        failures,
    )

    elapsed = time.perf_counter() - started
    print(f"\nsmoke finished in {elapsed:.1f}s — "
          f"{len(failures)} failure(s)")
    if failures:
        for f in failures:
            print(f"  FAILED: {f}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
