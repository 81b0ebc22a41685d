"""The paper's running example: the compact-disk store (Section 2).

Federates three simulated subsystems behind the unified Engine —

* a relational store holding crisp attributes (Artist, Year, Genre),
* a QBIC-like image engine scoring album-cover colour and shape,
* a text engine scoring free-text blurbs —

and runs the queries the paper discusses, showing for each the physical
strategy the planner chose and the access cost it paid. A closing batch
re-runs the graded queries through ``engine.run_many``, sharing one
atom-evaluation cache across them.

Run:  python examples/cd_store.py
"""

from repro import Engine, ExecutionContext
from repro.middleware import PlannerOptions, compare_conjunction_modes
from repro.subsystems import QbicSubsystem, RelationalSubsystem, TextSubsystem
from repro.workloads import cd_store


def build_store(num_albums: int = 200) -> tuple[Engine, dict]:
    albums = cd_store(num_albums, seed=7)
    engine = Engine(
        ExecutionContext(planner=PlannerOptions(selectivity_threshold=0.2))
    )
    engine.register(
        RelationalSubsystem(
            "store-db",
            {
                a.album_id: {"Artist": a.artist, "Year": a.year, "Genre": a.genre}
                for a in albums
            },
        )
    )
    engine.register(
        QbicSubsystem(
            "qbic",
            {
                "AlbumColor": {a.album_id: a.cover_rgb for a in albums},
                "Texture": {a.album_id: a.cover_texture for a in albums},
                "Shape": {a.album_id: (a.shape_roundness,) for a in albums},
            },
            named_targets={"Shape": {"round": (1.0,), "square": (0.0,)}},
        )
    )
    engine.register(
        TextSubsystem(
            "blurbs", {a.album_id: a.blurb for a in albums}, attribute="Blurb"
        )
    )
    return engine, {a.album_id: a for a in albums}


def show(engine, catalog, text, k=5):
    print("=" * 72)
    print(f"query: {text}")
    answer = engine.query(text).top(k)
    print(f"plan:  {answer.plan.explain()}")
    stats = answer.result.stats
    print(f"cost:  {stats.sum_cost} accesses "
          f"({stats.sorted_cost} sorted + {stats.random_cost} random)")
    for rank, (obj, grade) in enumerate(answer.items, start=1):
        album = catalog[obj]
        print(f"  {rank}. [{grade:.3f}] {album.artist} - {album.title} "
              f"({album.year}, {album.genre})")
    print()


def main() -> None:
    engine, catalog = build_store()

    # The mismatch query of Section 2: crisp conjunct + graded conjunct.
    # The planner picks the filtered strategy of Section 4.
    show(engine, catalog, '(Artist = "Beatles") AND (AlbumColor ~ "red")')

    # Two graded conjuncts from different features: A0' (Theorem 4.4).
    show(engine, catalog, '(AlbumColor ~ "red") AND (Shape ~ "round")')

    # The disjunction: algorithm B0, m*k accesses total (Theorem 4.5).
    show(engine, catalog, '(AlbumColor ~ "blue") OR (Shape ~ "square")')

    # User-weighted conjunction ([FW97]): colour twice as important.
    show(engine, catalog, 'WEIGHTED(2: AlbumColor ~ "red", 1: Shape ~ "round")')

    # Text retrieval federated alongside everything else.
    show(engine, catalog, '(Genre = "jazz") AND (Blurb ~ "luminous piano")')

    # Negation: falls back to the naive scan — and Section 7 proves
    # that in the worst case nothing better exists.
    show(engine, catalog, 'NOT (Genre = "rock") AND (AlbumColor ~ "red")')

    # Section 8: internal vs external conjunction, inside QBIC.
    print("=" * 72)
    print("Section 8: internal vs external conjunction "
          "(QBIC averages; Garlic takes min)")
    comparison = compare_conjunction_modes(
        engine, '(AlbumColor ~ "red") AND (Texture ~ "cd-0000")', k=3
    )
    print(comparison.summary())

    # Batch execution: the graded queries again. Each member mints its
    # own sources; the subsystems' ranking caches rank a shared atom once.
    print("=" * 72)
    before = engine.metrics_snapshot()["cache_totals"]
    batch = engine.run_many(
        [
            '(AlbumColor ~ "red") AND (Shape ~ "round")',
            '(AlbumColor ~ "blue") OR (Shape ~ "square")',
            '(AlbumColor ~ "red") AND (Texture ~ "cd-0000")',
        ],
        k=3,
    )
    after = engine.metrics_snapshot()["cache_totals"]
    print("batch of 3 queries through engine.run_many:")
    print(f"  ranking-cache hits: {after['hits'] - before['hits']} "
          f"(misses {after['misses'] - before['misses']})")
    print(f"  total cost: S={batch.total_sorted} + R={batch.total_random} "
          f"= {batch.total_accesses} accesses")


if __name__ == "__main__":
    main()
