"""Synthetic workload generators.

The paper has no performance evaluation, so the scaling benchmarks
(P1-P4 in DESIGN.md) synthesize workloads shaped like its motivating
scenarios: a marketplace graph (Figure 1 at scale) and CSV-style order
tables with duplicates and nulls (Examples 3 and 5 at scale).

All generators are deterministic given a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.graph.store import GraphStore
from repro.runtime.table import DrivingTable


@dataclass(frozen=True)
class MarketplaceConfig:
    """Size knobs for the synthetic marketplace graph."""

    users: int = 100
    vendors: int = 10
    products: int = 50
    orders: int = 200
    offers_per_product: int = 1
    seed: int = 7


def marketplace_graph(
    config: MarketplaceConfig = MarketplaceConfig(),
) -> GraphStore:
    """A Figure 1-shaped graph: Users order Products, Vendors offer them."""
    rng = random.Random(config.seed)
    store = GraphStore()
    users = [
        store.create_node(
            ("User",), {"id": i, "name": f"user-{i}"}
        )
        for i in range(config.users)
    ]
    vendors = [
        store.create_node(
            ("Vendor",), {"id": i, "name": f"vendor-{i}"}
        )
        for i in range(config.vendors)
    ]
    products = [
        store.create_node(
            ("Product",),
            {"id": i, "name": f"product-{i}", "price": (i % 50) + 1},
        )
        for i in range(config.products)
    ]
    for product in products:
        for vendor in rng.sample(
            vendors, min(config.offers_per_product, len(vendors))
        ):
            store.create_relationship("OFFERS", vendor, product)
    for __ in range(config.orders):
        store.create_relationship(
            "ORDERED", rng.choice(users), rng.choice(products)
        )
    store.commit_to(0)
    return store


@dataclass(frozen=True)
class OrderTableConfig:
    """Shape of a synthetic cid/pid order table (Example 5 at scale)."""

    rows: int = 1000
    distinct_users: int = 100
    distinct_products: int = 50
    #: fraction of rows whose pid is null (unknown product)
    null_ratio: float = 0.1
    #: fraction of rows that duplicate an earlier (cid, pid) pair
    duplicate_ratio: float = 0.2
    seed: int = 11


def order_table(config: OrderTableConfig = OrderTableConfig()) -> DrivingTable:
    """A cid/pid/date driving table with controlled duplicates and nulls.

    Drives the MERGE-variant scaling benchmarks: ``duplicate_ratio``
    controls how much Grouping/Collapse can save over Atomic, and
    ``null_ratio`` exercises the null-handling rules of Example 5.
    """
    rng = random.Random(config.seed)
    rows: list[dict] = []
    seen_pairs: list[tuple] = []
    for index in range(config.rows):
        if seen_pairs and rng.random() < config.duplicate_ratio:
            cid, pid = rng.choice(seen_pairs)
        else:
            cid = rng.randrange(config.distinct_users)
            if rng.random() < config.null_ratio:
                pid = None
            else:
                pid = rng.randrange(config.distinct_products)
            seen_pairs.append((cid, pid))
        rows.append(
            {"cid": cid, "pid": pid, "date": f"2018-{(index % 12) + 1:02d}-01"}
        )
    return DrivingTable(("cid", "pid", "date"), rows)


def chain_graph(length: int) -> GraphStore:
    """A directed chain of `length` relationships (matcher benchmarks)."""
    store = GraphStore()
    previous = store.create_node(("Hop",), {"id": 0})
    for index in range(1, length + 1):
        node = store.create_node(("Hop",), {"id": index})
        store.create_relationship("NEXT", previous, node)
        previous = node
    store.commit_to(0)
    return store


def social_graph(
    people: int, friends_per_person: int = 5, seed: int = 23
) -> GraphStore:
    """A random friendship graph (KNOWS), for traversal workloads."""
    rng = random.Random(seed)
    store = GraphStore()
    ids = [
        store.create_node(
            ("Person",), {"id": i, "name": f"person-{i}"}
        )
        for i in range(people)
    ]
    for source in ids:
        for __ in range(friends_per_person):
            target = rng.choice(ids)
            if target != source:
                store.create_relationship("KNOWS", source, target)
    store.commit_to(0)
    return store


def product_update_table(
    store: GraphStore, *, seed: int = 5
) -> DrivingTable:
    """One row per Product node (drives SET/DELETE scaling benchmarks)."""
    rng = random.Random(seed)
    rows = []
    __, __, product_ids = store.node_access(("Product",), fetch=True)
    for node_id in product_ids:
        rows.append(
            {
                "product": store.node(node_id),
                "new_price": rng.randrange(1, 1000),
            }
        )
    return DrivingTable(("product", "new_price"), rows)
