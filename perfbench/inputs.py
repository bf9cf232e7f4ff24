"""Seeded benchmark inputs.

Everything the program under test receives is generated here from the
``--seed`` argument: SQL text and (through the program's own TPC-H loader)
rows.  The same seed always yields the same inputs, independent of
``PYTHONHASHSEED``.

* Advise inputs: the Table II products A and B with every equality
  constant and every inserted value re-drawn from the seed.  The cost model
  prices ``col = c`` as ``1/ndv`` for a constant outside the statistics
  sample, so the advisor's problem (plans, costs, search path) stays the
  same across seeds while every statement text, and so every text-keyed
  cache, changes.  Range constants keep their generated values: moving
  them changes selectivities and, through them, how long the greedy search
  runs.  JOB is a fixed public benchmark and does not vary with the seed.
* Serve input: a closed-loop statement stream over stored TPC-H that
  alternates between two template mixes needing different indexes.  The
  template sequence is fixed; the seed draws keys (uniform for reads,
  Zipf-skewed for writes), values and the data.
"""

from __future__ import annotations

import bisect
import random
import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

#: Integer literals of four or more digits that are not part of an
#: identifier such as ``t129`` or a string such as ``'v33'``.
_LITERAL = re.compile(r"(?<![\w.'#])(\d{4,})(?![\w.'])")
#: The same, only where they are the right side of an equality.
_EQ_LITERAL = re.compile(r"(?<== )(\d{4,})(?![\w.'])")


def product_input(name: str, seed: int):
    """(db, workload) for Table II product *name*, constants re-drawn by *seed*."""
    from repro.workload import Workload, WorkloadQuery
    from repro.workloads.production import PRODUCTS, build_product

    product = build_product(PRODUCTS[name])
    rng = random.Random(seed * 7919 + ord(name))

    def redraw(match: re.Match) -> str:
        return str(rng.randint(1, 1_000_000))

    queries = []
    for q in product.workload:
        pattern = _LITERAL if q.sql.startswith("INSERT") else _EQ_LITERAL
        queries.append(WorkloadQuery(pattern.sub(redraw, q.sql), q.weight, name=q.name))
    return product.db, Workload(queries, name=product.workload.name)


def job_input():
    """(db, workload) for JOB; the 22 queries do not depend on the seed."""
    from repro.workloads.job import job_database, job_workload

    return job_database(), job_workload()


# -- tune_serve stream ---------------------------------------------------------

#: Stored TPC-H scale factor (60k lineitem rows, 15k orders).
SCALE_FACTOR = 0.01

#: Positions (mod 10) of writes in the statement sequence: 70% reads.
WRITE_SLOTS = (2, 5, 8)
#: Write kinds, taken in turn.
WRITE_KINDS = ("insert", "update_date", "update_qty", "delete")

#: Zipf exponent of key popularity.
ZIPF_S = 1.1

_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")


@dataclass(frozen=True)
class Statement:
    """One generated statement of the serve stream."""

    kind: str                    # "read" or "write"
    template: str
    sql: str
    #: For joins: (table, column, value) pinning the driving table to one
    #: key.  The reference check uses it to shrink that table's rows so the
    #: brute-force cartesian product stays small.
    pin: Optional[tuple[str, str, int]] = None


class _Zipf:
    """Zipf-skewed draws over keys 1..n, hot keys scattered by a permutation."""

    def __init__(self, rng: random.Random, n: int):
        self._rng = rng
        self._keys = list(range(1, n + 1))
        rng.shuffle(self._keys)
        self._cum = list(accumulate(1.0 / (r ** ZIPF_S) for r in range(1, n + 1)))

    def draw(self) -> int:
        u = self._rng.random() * self._cum[-1]
        return self._keys[min(bisect.bisect_left(self._cum, u), len(self._keys) - 1)]


class ServeStream:
    """Seeded statement stream for the tune_serve workload.

    Phase 0 needs indexes on ``orders.o_custkey`` and ``lineitem.l_partkey``;
    phase 1 needs ``orders.o_clerk``, ``orders.o_orderdate`` and
    ``lineitem.l_suppkey``.  Both phases share the PK lookups and the DML
    mix.  Without its indexes every non-PK read is a full scan whose cost
    does not depend on the key (no ORDER BY that an early-stopping PK scan
    could serve), so read latency varies with the code and the machine,
    not with which keys a seed drew.  Each phase reads as 1/4 PK lookups,
    1/2 scans of orders and 1/4 scans of lineitem, so the read median falls
    inside the orders-scan group rather than on a border between groups,
    where a small shift would jump it from one group to the next.
    """

    def __init__(self, seed: int):
        from repro.workloads.tpch.schema import MAX_DAY, row_counts

        self.rng = random.Random(seed * 104729 + 17)
        counts = row_counts(SCALE_FACTOR)
        self.counts = counts
        self.max_day = MAX_DAY - 151
        self.hot_orders = _Zipf(self.rng, counts["orders"])
        self.hot_customers = _Zipf(self.rng, counts["customer"])
        self.next_order = counts["orders"] + 1
        self.reads = 0
        self.writes = 0

    def window(self, phase: int, size: int) -> list[Statement]:
        """The next *size* statements: reads and writes in a fixed pattern,
        read shapes and write kinds taken in turn."""
        out = []
        for i in range(size):
            if i % 10 in WRITE_SLOTS:
                out.append(self._write(WRITE_KINDS[self.writes % len(WRITE_KINDS)]))
                self.writes += 1
            else:
                out.append(self._read(phase, self.reads % 4))
                self.reads += 1
        return out

    def _key(self, table: str) -> int:
        """A uniformly drawn existing key of *table* (reads)."""
        return self.rng.randint(1, self.counts[table])

    def _read(self, phase: int, shape: int) -> Statement:
        rng = self.rng
        if phase == 0:
            if shape == 0:
                return Statement(
                    "read", "a_pk_order",
                    f"SELECT * FROM orders WHERE o_orderkey = {self._key('orders')}",
                )
            if shape == 1:
                return Statement(
                    "read", "a_lines_by_part",
                    "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem "
                    f"WHERE l_partkey = {self._key('part')}",
                )
            if shape == 2:
                return Statement(
                    "read", "a_orders_by_cust_latest",
                    "SELECT o_orderkey, o_orderdate, o_totalprice FROM orders "
                    f"WHERE o_custkey = {self._key('customer')} "
                    "ORDER BY o_orderdate DESC LIMIT 3",
                )
            cust = self._key("customer")
            return Statement(
                "read", "a_join_cust_orders",
                "SELECT c_name, o_orderkey, o_totalprice FROM customer, orders "
                f"WHERE c_custkey = o_custkey AND c_custkey = {cust}",
                pin=("customer", "c_custkey", cust),
            )
        if shape == 0:
            return Statement(
                "read", "b_pk_customer",
                f"SELECT * FROM customer WHERE c_custkey = {self._key('customer')}",
            )
        if shape == 1:
            return Statement(
                "read", "b_orders_by_clerk",
                "SELECT o_orderkey, o_orderstatus, o_totalprice FROM orders "
                f"WHERE o_clerk = 'Clerk#{rng.randint(1, self.counts['orders'] // 100)}' "
                f"AND o_orderpriority = '{rng.choice(_PRIORITIES)}'",
            )
        if shape == 2:
            day = rng.randint(0, self.max_day)
            return Statement(
                "read", "b_orders_by_date_top",
                "SELECT o_orderkey, o_totalprice FROM orders "
                f"WHERE o_orderdate BETWEEN {day} AND {day + 3} "
                "ORDER BY o_totalprice DESC LIMIT 10",
            )
        supp = self._key("supplier")
        return Statement(
            "read", "b_join_supp_lines",
            "SELECT s_name, l_orderkey, l_quantity FROM supplier, lineitem "
            f"WHERE s_suppkey = l_suppkey AND s_suppkey = {supp} "
            f"AND l_quantity > {rng.randint(40, 48)}",
            pin=("supplier", "s_suppkey", supp),
        )

    def _write(self, kind: str) -> Statement:
        rng = self.rng
        if kind == "insert":
            key = self.next_order
            self.next_order += 1
            return Statement(
                "write", "w_insert_order",
                "INSERT INTO orders (o_orderkey, o_custkey, o_orderstatus, "
                "o_totalprice, o_orderdate, o_orderpriority, o_clerk, "
                "o_shippriority, o_comment) VALUES "
                f"({key}, {self.hot_customers.draw()}, 'O', "
                f"{rng.randint(800, 560_000)}.{rng.randint(10, 99)}, "
                f"{rng.randint(0, self.max_day)}, '3-MEDIUM', "
                f"'Clerk#{rng.randint(1, 150)}', 0, 'fresh order')",
            )
        if kind == "update_date":
            return Statement(
                "write", "w_update_order_date",
                f"UPDATE orders SET o_orderdate = {rng.randint(0, self.max_day)} "
                f"WHERE o_orderkey = {self.hot_orders.draw()}",
            )
        if kind == "update_qty":
            return Statement(
                "write", "w_update_line_qty",
                f"UPDATE lineitem SET l_quantity = {rng.randint(1, 50)} "
                f"WHERE l_orderkey = {self.hot_orders.draw()} AND l_linenumber = 1",
            )
        return Statement(
            "write", "w_delete_line",
            f"DELETE FROM lineitem WHERE l_orderkey = {self.hot_orders.draw()} "
            f"AND l_linenumber = {rng.randint(1, 7)}",
        )
