"""TPC-H data generation for executor-backed tests.

Generates rows whose distributions match the synthetic statistics of
:mod:`.schema` closely enough for plan/selectivity validation.  Intended
for small scale factors (<= 0.05); the estimated-cost experiments use
stats-only databases instead.

Rows are generated straight into one value list per column and bulk
loaded with :meth:`Database.load_columns`; no row dict is built.  Every
draw goes through ``below(n)``, which is CPython's
``Random._randbelow_with_getrandbits`` over the same ``random.Random``,
so it mirrors the ``Random`` methods draw for draw: ``randint(a, b)`` is
``a + below(b - a + 1)``, ``randrange(n)`` is ``below(n)``,
``choice(s)`` is ``s[below(len(s))]`` and ``uniform(a, b)`` is
``a + (b - a) * random()``.  The draws keep their row-major order, so a
seed gives the rows it always gave; ``tests/test_tpch.py`` pins the
stored rows and statistics of ``load_tpch(0.01, 1)`` by digest.

Each repeated value is one object, taken from one shared list: the
dates (``o_orderdate`` and ``l_shipdate``, ``l_commitdate`` and
``l_receiptdate``) from ``days``, ``l_partkey`` and ``ps_partkey`` from
the list loaded as ``p_partkey``, ``o_custkey`` from ``c_custkey``'s,
``l_orderkey`` from ``o_orderkey``'s and ``o_clerk`` from ``clerks``.
The tables keep the lists they are loaded with; a key list is read
after its load only while nothing has written to its table.
"""

from __future__ import annotations

import random

from ...engine import Database, INNODB, CostParams
from .schema import MAX_DAY, row_counts, tpch_tables

_SEGMENTS = ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"]
_REGION_NAMES = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_STATUSES = ["F", "O", "P"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_SHIPMODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
_INSTRUCTS = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"]
_CONTAINERS = ["SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE",
               "LG BOX", "JUMBO PACK", "WRAP CASE"]
_NATION_NAMES = [
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
    "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
    "UNITED STATES",
]
_TYPE_WORDS1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
_TYPE_WORDS2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
_TYPE_WORDS3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]
_NAME_WORDS = ["green", "blue", "red", "ivory", "peach", "forest", "azure",
               "chocolate", "salmon", "linen"]
_ORDER_COMMENTS = ["regular deposits", "special requests handled", "quiet ideas"]
_RETURNFLAGS = ["A", "N", "R"]
_LINESTATUSES = ["F", "O"]
#: ``round(k / 100, 2)`` for every discount (k <= 10) and tax (k <= 8) draw.
_PERCENTS = [round(k / 100, 2) for k in range(11)]


def load_tpch(
    scale_factor: float = 0.01,
    seed: int = 42,
    params: CostParams = INNODB,
) -> Database:
    """Build and populate a stored TPC-H database, then ANALYZE it."""
    counts = row_counts(scale_factor)
    if counts["supplier"] < 1:   # below(0) would never return
        raise ValueError(f"scale factor {scale_factor:g} yields no supplier")
    rng = random.Random(seed)
    getrandbits, random01 = rng.getrandbits, rng.random

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    db = Database.from_tables(
        tpch_tables(), params=params, with_storage=True,
        name=f"tpch-data-sf{scale_factor:g}",
    )
    days = list(range(MAX_DAY + 1))
    db.load_columns("region", {
        "r_regionkey": list(range(5)),
        "r_name": _REGION_NAMES,
        "r_comment": [f"region {i}" for i in range(5)],
    })
    db.load_columns("nation", {
        "n_nationkey": list(range(25)),
        "n_name": _NATION_NAMES,
        "n_regionkey": [i % 5 for i in range(25)],
        "n_comment": [f"nation {i}" for i in range(25)],
    })

    n = counts["supplier"]
    nationkey, phone, acctbal = [], [], []
    for _ in range(n):
        nationkey.append(below(25))
        phone.append(f"{10 + below(25)}-{100 + below(900)}")
        acctbal.append(round(-999 + 10_998 * random01(), 2))
    db.load_columns("supplier", {
        "s_suppkey": list(range(1, n + 1)),
        "s_name": [f"Supplier#{i:09d}" for i in range(1, n + 1)],
        "s_address": [f"addr{i}" for i in range(n)],
        "s_nationkey": nationkey,
        "s_phone": phone,
        "s_acctbal": acctbal,
        "s_comment": [f"comment {i}" for i in range(n)],
    })

    n = counts["customer"]
    nationkey, phone, acctbal, segment = [], [], [], []
    for _ in range(n):
        nationkey.append(below(25))
        phone.append(f"{10 + below(25)}-{100 + below(900)}")
        acctbal.append(round(-999 + 10_998 * random01(), 2))
        segment.append(_SEGMENTS[below(len(_SEGMENTS))])
    custkeys = list(range(1, n + 1))
    db.load_columns("customer", {
        "c_custkey": custkeys,
        "c_name": [f"Customer#{i:09d}" for i in range(1, n + 1)],
        "c_address": [f"caddr{i}" for i in range(n)],
        "c_nationkey": nationkey,
        "c_phone": phone,
        "c_acctbal": acctbal,
        "c_mktsegment": segment,
        "c_comment": [f"ccomment {i}" for i in range(n)],
    })

    n = counts["part"]
    pname, mfgr, brand, ptype, size, container, price = [], [], [], [], [], [], []
    for i in range(n):
        pname.append(" ".join(rng.sample(_NAME_WORDS, 3)))
        mfgr.append(f"Manufacturer#{1 + below(5)}")
        brand.append(f"Brand#{1 + below(5)}{1 + below(5)}")
        ptype.append(
            f"{_TYPE_WORDS1[below(len(_TYPE_WORDS1))]} "
            f"{_TYPE_WORDS2[below(len(_TYPE_WORDS2))]} "
            f"{_TYPE_WORDS3[below(len(_TYPE_WORDS3))]}"
        )
        size.append(1 + below(50))
        container.append(_CONTAINERS[below(len(_CONTAINERS))])
        price.append(round(900 + (i % 1000) + 100 * random01(), 2))
    partkeys = list(range(1, n + 1))
    db.load_columns("part", {
        "p_partkey": partkeys,
        "p_name": pname,
        "p_mfgr": mfgr,
        "p_brand": brand,
        "p_type": ptype,
        "p_size": size,
        "p_container": container,
        "p_retailprice": price,
        "p_comment": [f"pc{i}" for i in range(n)],
    })

    n, parts, suppliers = counts["partsupp"], counts["part"], counts["supplier"]
    suppkey, availqty, supplycost = [], [], []
    for _ in range(n):
        suppkey.append(1 + below(suppliers))
        availqty.append(1 + below(9999))
        supplycost.append(round(1 + 999 * random01(), 2))
    db.load_columns("partsupp", {
        "ps_partkey": [partkeys[i % parts] for i in range(n)],
        "ps_suppkey": suppkey,
        "ps_availqty": availqty,
        "ps_supplycost": supplycost,
        "ps_comment": [f"psc{i}" for i in range(n)],
    })

    n, customers = counts["orders"], counts["customer"]
    orderkey = list(range(1, n + 1))
    clerks = [f"Clerk#{k}" for k in range(1, max(1, n // 100) + 1)]
    custkey, status, totalprice, orderdate, priority, clerk, comment = (
        [], [], [], [], [], [], []
    )
    for _ in range(n):
        custkey.append(custkeys[below(customers)])
        status.append(_STATUSES[below(len(_STATUSES))])
        totalprice.append(round(800 + 559_200 * random01(), 2))
        orderdate.append(days[below(MAX_DAY - 150)])
        priority.append(_PRIORITIES[below(len(_PRIORITIES))])
        clerk.append(clerks[below(len(clerks))])
        comment.append(_ORDER_COMMENTS[below(len(_ORDER_COMMENTS))])
    db.load_columns("orders", {
        "o_orderkey": orderkey,
        "o_custkey": custkey,
        "o_orderstatus": status,
        "o_totalprice": totalprice,
        "o_orderdate": orderdate,
        "o_orderpriority": priority,
        "o_clerk": clerk,
        "o_shippriority": [0] * n,
        "o_comment": comment,
    })

    lineitem = {name: [] for name in db.schema.table("lineitem").column_names}
    (   # schema order
        l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity,
        l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus,
        l_shipdate, l_commitdate, l_receiptdate, l_shipinstruct, l_shipmode,
        l_comment,
    ) = (values.append for values in lineitem.values())
    orders, total, i = n, counts["lineitem"], 0
    while i < total:
        order = below(orders)
        date = orderdate[order]
        for line in range(1, below(7) + 2):
            if i >= total:
                break
            ship = date + 1 + below(121)
            commit = date + 30 + below(61)
            receipt = ship + 1 + below(30)
            l_orderkey(orderkey[order])
            l_partkey(partkeys[below(parts)])
            l_suppkey(1 + below(suppliers))
            l_linenumber(line)
            l_quantity(1 + below(50))
            l_extendedprice(round(900 + 104_100 * random01(), 2))
            l_discount(_PERCENTS[below(11)])
            l_tax(_PERCENTS[below(9)])
            l_returnflag(_RETURNFLAGS[below(len(_RETURNFLAGS))])
            l_linestatus(_LINESTATUSES[below(len(_LINESTATUSES))])
            l_shipdate(days[min(ship, MAX_DAY)])
            l_commitdate(days[min(commit, MAX_DAY)])
            l_receiptdate(days[min(receipt, MAX_DAY)])
            l_shipinstruct(_INSTRUCTS[below(len(_INSTRUCTS))])
            l_shipmode(_SHIPMODES[below(len(_SHIPMODES))])
            l_comment(f"lc{i}")
            i += 1
    db.load_columns("lineitem", lineitem)
    db.analyze()
    return db
