"""Evaluating over subsystems that cannot do random access.

Section 4 models two access modes and footnote 5 notes the paper
*assumes* random access is available ("which, in fact, it can" — for
QBIC). This example shows what the middleware does when that assumption
fails: a stream-only ranked source (think: a remote engine that only
returns results page by page) forces the planner onto the
No-Random-Access algorithm, which certifies the top-k from sorted
streams alone using upper/lower bound bookkeeping.

Run:  python examples/streaming_sources.py
"""

from repro import MINIMUM, Engine, select_strategy
from repro.access.cost import CostModel
from repro.algorithms import FaginA0Min, NoRandomAccessAlgorithm
from repro.subsystems import QbicSubsystem, StreamOnlySubsystem, SyntheticSubsystem
from repro.workloads import Uniform, independent_database


def middleware_demo() -> None:
    objs = [f"track-{i:04d}" for i in range(2000)]
    # A similarity engine that CAN do random access ...
    import random

    rng = random.Random(5)
    qbic = QbicSubsystem(
        "audio-features",
        {"Timbre": {o: (rng.random(), rng.random()) for o in objs}},
    )
    # ... federated with a remote popularity feed that can only stream.
    popularity = StreamOnlySubsystem(
        SyntheticSubsystem(
            "popularity-feed",
            generated={"Popularity": Uniform()},
            objects=objs,
            seed=9,
        )
    )

    engine = Engine().register(qbic).register(popularity)

    # Vector targets are not query-language literals, so build the AST
    # directly (query by value on Timbre, any target on the feed).
    from repro.core.query import And, AtomicQuery

    query = And(
        (
            AtomicQuery("Timbre", (0.8, 0.2), "~"),
            AtomicQuery("Popularity", "this-week", "~"),
        )
    )
    print("query:", query)
    print("plan: ", engine.plan(query).explain())
    answer = engine.query(query).top(5)
    stats = answer.result.stats
    print(f"cost:  {stats.sorted_cost} sorted + {stats.random_cost} random "
          f"(random access is impossible on the feed — and unused)\n")
    for rank, (obj, grade) in enumerate(answer.items, start=1):
        print(f"  {rank}. [{grade:.4f}] {obj}")


def cost_model_demo() -> None:
    print("\n--- cost-model-driven selection -------------------------")
    print("Section 5's middleware cost is c1*S + c2*R; when random")
    print("accesses are expensive, the selection table flips to NRA:\n")
    for ratio in (1, 5, 10, 50):
        model = CostModel(sorted_weight=1.0, random_weight=float(ratio))
        choice = select_strategy(MINIMUM, 2, cost_model=model)
        print(f"  c2/c1 = {ratio:3d}  ->  {choice.name}")

    db = independent_database(2, 2000, seed=3)
    expensive = CostModel(sorted_weight=1.0, random_weight=50.0)
    a0p = FaginA0Min().top_k(db.session(), MINIMUM, 10)
    nra = NoRandomAccessAlgorithm().top_k(db.session(), MINIMUM, 10)
    print(f"\n  measured at c2/c1 = 50, N = 2000, k = 10:")
    print(f"    A0' weighted cost: {a0p.stats.middleware_cost(expensive):8.0f}"
          f"   (S={a0p.stats.sorted_cost}, R={a0p.stats.random_cost})")
    print(f"    NRA weighted cost: {nra.stats.middleware_cost(expensive):8.0f}"
          f"   (S={nra.stats.sorted_cost}, R=0)")


if __name__ == "__main__":
    middleware_demo()
    cost_model_demo()
