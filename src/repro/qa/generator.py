"""Seed-deterministic generation of schemas, data, and SQL workloads.

The fuzzer's front end: given an integer seed, :func:`generate_case`
produces a :class:`Case` -- tables, rows with adversarial value
distributions (skewed, correlated, NULL-heavy, low-cardinality), and a
workload of SELECT/DML statements that stays inside the dialect
``repro.sqlparser`` supports.  Queries are built as AST nodes and
emitted through ``to_sql()``, so every generated statement parses back
by construction.

Determinism contract: all randomness flows through one
``random.Random(seed)`` instance and no code path iterates a set or a
hash-keyed dict, so the same seed yields a byte-identical
``Case.to_json()`` on any Python process regardless of
``PYTHONHASHSEED`` (``tests/test_qa_determinism.py`` enforces this).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from ..catalog import Column, ColumnType, Table, TypeKind, varchar
from ..engine import Database, INNODB
from ..sqlparser import ast

INT = ColumnType(TypeKind.INTEGER, 4)

#: Aggregate functions the generator emits (AVG and ``/`` are excluded:
#: float results would make row comparison tolerance-dependent).
_AGG_FUNCS = ("COUNT", "SUM", "MIN", "MAX")


@dataclass
class GenConfig:
    """Knobs for :func:`generate_case`; all ranges are inclusive."""

    tables: tuple[int, int] = (1, 3)
    extra_columns: tuple[int, int] = (2, 4)   # beyond the PK (and FKs)
    rows: tuple[int, int] = (0, 120)
    statements: tuple[int, int] = (4, 10)
    dml_fraction: float = 0.25
    nullable_fraction: float = 0.35    # chance a generated column is nullable
    join_fraction: float = 0.35        # chance a SELECT joins two tables
    max_limit: int = 25


@dataclass
class Case:
    """One generated scenario: schema + rows + workload statements."""

    seed: int
    tables: list[Table]
    rows: dict[str, list[dict]]
    statements: list[str]

    # -- construction ----------------------------------------------------------

    def database(self, params=INNODB, with_storage: bool = True) -> Database:
        """A fresh stored (or stats-only) database loaded with this case."""
        from ..catalog.schema import Schema

        db = Database(
            Schema.from_tables(self.tables), params=params,
            with_storage=with_storage, name=f"qa-{self.seed}",
        )
        if with_storage:
            for table in self.tables:
                db.load_rows(table.name, [dict(r) for r in self.rows[table.name]])
        else:
            from ..stats import analyze_table

            for table in self.tables:
                rows = self.rows[table.name]
                by_column = {
                    col: [row.get(col) for row in rows]
                    for col in table.column_names
                }
                db.set_stats(table.name, analyze_table(by_column))
            return db
        db.analyze()
        return db

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "tables": [_table_to_dict(t) for t in self.tables],
            "rows": {
                t.name: [
                    [row.get(c) for c in t.column_names]
                    for row in self.rows[t.name]
                ]
                for t in self.tables
            },
            "statements": list(self.statements),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    @classmethod
    def from_dict(cls, payload: dict) -> "Case":
        tables = [_table_from_dict(t) for t in payload["tables"]]
        rows: dict[str, list[dict]] = {}
        for table in tables:
            cells = payload["rows"].get(table.name, [])
            rows[table.name] = [
                dict(zip(table.column_names, values)) for values in cells
            ]
        return cls(
            seed=int(payload.get("seed", 0)),
            tables=tables,
            rows=rows,
            statements=list(payload["statements"]),
        )


def _table_to_dict(table: Table) -> dict:
    return {
        "name": table.name,
        "primary_key": list(table.primary_key),
        "columns": [
            {
                "name": c.name,
                "kind": c.ctype.kind.value,
                "width": c.ctype.width,
                "nullable": c.nullable,
            }
            for c in table.columns
        ],
    }


def _table_from_dict(payload: dict) -> Table:
    columns = [
        Column(
            c["name"],
            ColumnType(TypeKind(c["kind"]), int(c["width"])),
            nullable=bool(c["nullable"]),
        )
        for c in payload["columns"]
    ]
    return Table(payload["name"], columns, tuple(payload["primary_key"]))


# -- column value models ------------------------------------------------------


@dataclass
class _ColumnSpec:
    """How a generated column's values are produced."""

    column: Column
    kind: str                      # uniform | skew | enum | string | fk | corr
    lo: int = 0
    hi: int = 100
    values: tuple[str, ...] = ()   # enum domain
    pool: int = 10                 # string pool size
    parent: str = ""               # fk: parent table name
    base: str = ""                 # corr: source column name
    null_rate: float = 0.0


@dataclass
class _TableSpec:
    table: Table
    specs: list[_ColumnSpec] = field(default_factory=list)


def _gen_value(rng: random.Random, spec: _ColumnSpec, row: dict,
               parent_rows: int) -> Any:
    if spec.null_rate > 0.0 and rng.random() < spec.null_rate:
        return None
    if spec.kind == "uniform":
        return rng.randint(spec.lo, spec.hi)
    if spec.kind == "skew":
        # Power-law-ish: most mass near lo, a long tail toward hi.
        span = spec.hi - spec.lo
        return spec.lo + int(span * rng.random() ** 3)
    if spec.kind == "enum":
        return spec.values[rng.randrange(len(spec.values))]
    if spec.kind == "string":
        return f"s{rng.randrange(spec.pool)}"
    if spec.kind == "fk":
        # May dangle past the parent's rows: inner joins must drop those.
        return rng.randint(1, max(2, parent_rows + parent_rows // 4))
    if spec.kind == "corr":
        base = row.get(spec.base)
        if base is None:
            return None
        return base * 2 + rng.randint(0, 3)
    raise ValueError(f"unknown column kind {spec.kind!r}")


def _gen_schema(rng: random.Random, config: GenConfig) -> list[_TableSpec]:
    n_tables = rng.randint(*config.tables)
    specs: list[_TableSpec] = []
    for t in range(n_tables):
        name = f"t{t}"
        columns = [Column("id", INT)]
        col_specs: list[_ColumnSpec] = []
        if t > 0 and rng.random() < 0.8:
            parent = f"t{rng.randrange(t)}"
            fk = Column(f"{parent}_id", INT, nullable=rng.random() < 0.2)
            columns.append(fk)
            col_specs.append(_ColumnSpec(
                fk, "fk", parent=parent,
                null_rate=0.1 if fk.nullable else 0.0,
            ))
        int_cols: list[str] = []
        for j in range(rng.randint(*config.extra_columns)):
            cname = f"c{j}"
            nullable = rng.random() < config.nullable_fraction
            null_rate = rng.choice((0.05, 0.2, 0.5)) if nullable else 0.0
            kind = rng.choice(
                ("uniform", "uniform", "skew", "enum", "string", "corr")
            )
            if kind == "corr" and not int_cols:
                kind = "uniform"
            if kind in ("uniform", "skew"):
                hi = rng.choice((8, 50, 1000))
                column = Column(cname, INT, nullable=nullable)
                col_specs.append(_ColumnSpec(
                    column, kind, lo=0, hi=hi, null_rate=null_rate
                ))
                int_cols.append(cname)
            elif kind == "corr":
                column = Column(cname, INT, nullable=nullable)
                col_specs.append(_ColumnSpec(
                    column, "corr", base=rng.choice(int_cols),
                    null_rate=null_rate,
                ))
                int_cols.append(cname)
            elif kind == "enum":
                domain = tuple(f"v{k}" for k in range(rng.randint(2, 6)))
                column = Column(cname, varchar(8), nullable=nullable)
                col_specs.append(_ColumnSpec(
                    column, "enum", values=domain, null_rate=null_rate
                ))
            else:
                column = Column(cname, varchar(12), nullable=nullable)
                col_specs.append(_ColumnSpec(
                    column, "string", pool=rng.choice((5, 30, 200)),
                    null_rate=null_rate,
                ))
            columns.append(column)
        specs.append(_TableSpec(Table(name, columns, ("id",)), col_specs))
    return specs


def _gen_rows(
    rng: random.Random, spec: _TableSpec, config: GenConfig,
    row_counts: dict[str, int],
) -> list[dict]:
    n = rng.randint(*config.rows)
    row_counts[spec.table.name] = n
    rows: list[dict] = []
    for i in range(n):
        row: dict[str, Any] = {"id": i + 1}
        for cspec in spec.specs:
            parent_rows = row_counts.get(cspec.parent, 0)
            row[cspec.column.name] = _gen_value(rng, cspec, row, parent_rows)
        rows.append(row)
    return rows


# -- workload generation ------------------------------------------------------


class _WorkloadGen:
    def __init__(self, rng: random.Random, specs: list[_TableSpec],
                 rows: dict[str, list[dict]], config: GenConfig):
        self.rng = rng
        self.specs = specs
        self.rows = rows
        self.config = config
        self.next_pk = {
            spec.table.name: len(rows[spec.table.name]) + 1 for spec in specs
        }

    # -- constants -------------------------------------------------------------

    def _sample_value(self, table: str, spec: _ColumnSpec) -> Any:
        """A predicate constant: usually a live value, sometimes a miss."""
        rng = self.rng
        observed = [
            row[spec.column.name]
            for row in self.rows[table]
            if row[spec.column.name] is not None
        ]
        if observed and rng.random() < 0.8:
            return rng.choice(observed)
        return _gen_value(rng, replace(spec, null_rate=0.0), {},
                          len(self.rows.get(spec.parent, ())))

    # -- predicates ------------------------------------------------------------

    def _predicate(self, binding: Optional[str], table: str,
                   spec: _ColumnSpec) -> ast.Expr:
        rng = self.rng
        ref = ast.ColumnRef(binding, spec.column.name)
        is_int = spec.column.ctype.kind == TypeKind.INTEGER
        if spec.column.nullable and rng.random() < 0.12:
            return ast.IsNull(ref, negated=rng.random() < 0.4)
        value = self._sample_value(table, spec)
        if value is None:
            return ast.IsNull(ref)
        if is_int:
            roll = rng.random()
            if roll < 0.35:
                return ast.Comparison("=", ref, ast.Literal(value))
            if roll < 0.55:
                op = rng.choice((">", ">=", "<", "<="))
                return ast.Comparison(op, ref, ast.Literal(value))
            if roll < 0.75:
                other = self._sample_value(table, spec)
                if other is None:
                    other = value
                lo, hi = sorted((value, other))
                return ast.Between(
                    ref, ast.Literal(lo), ast.Literal(hi),
                    negated=rng.random() < 0.15,
                )
            items = sorted(
                {value}
                | {
                    v for v in (
                        self._sample_value(table, spec)
                        for _ in range(rng.randint(1, 3))
                    )
                    if v is not None
                },
                key=str,
            )
            return ast.InList(
                ref, tuple(ast.Literal(v) for v in items),
                negated=rng.random() < 0.1,
            )
        roll = rng.random()
        if roll < 0.45:
            return ast.Comparison("=", ref, ast.Literal(value))
        if roll < 0.7:
            prefix = str(value)[: rng.randint(1, 2)]
            return ast.Comparison("LIKE", ref, ast.Literal(prefix + "%"))
        items = sorted(
            {str(value)}
            | {
                str(v) for v in (
                    self._sample_value(table, spec)
                    for _ in range(rng.randint(1, 3))
                )
                if v is not None
            }
        )
        return ast.InList(
            ref, tuple(ast.Literal(v) for v in items),
            negated=rng.random() < 0.1,
        )

    def _where(self, bindings: list[tuple[Optional[str], _TableSpec]],
               extra: list[ast.Expr], max_preds: int = 3) -> Optional[ast.Expr]:
        rng = self.rng
        conjuncts: list[ast.Expr] = list(extra)
        n_preds = rng.randint(0 if conjuncts else 1, max_preds)
        candidates = [
            (binding, spec.table.name, cspec)
            for binding, spec in bindings
            for cspec in spec.specs
        ]
        for _ in range(n_preds):
            if not candidates:
                break
            binding, table, cspec = rng.choice(candidates)
            pred = self._predicate(binding, table, cspec)
            if rng.random() < 0.2:
                other_b, other_t, other_c = rng.choice(candidates)
                pred = ast.Or((pred, self._predicate(other_b, other_t, other_c)))
            if rng.random() < 0.07:
                pred = ast.Not(pred)
            conjuncts.append(pred)
        if not conjuncts:
            return None
        if len(conjuncts) == 1:
            return conjuncts[0]
        return ast.And(tuple(conjuncts))

    # -- statements ------------------------------------------------------------

    def select(self) -> ast.Select:
        rng = self.rng
        spec = rng.choice(self.specs)
        bindings: list[tuple[Optional[str], _TableSpec]] = []
        tables = [ast.TableRef(spec.table.name)]
        extra: list[ast.Expr] = []
        join_partner = self._join_partner(spec)
        if join_partner is not None and rng.random() < self.config.join_fraction:
            fk_spec, parent = join_partner
            bindings = [(spec.table.name, spec), (parent.table.name, parent)]
            tables.append(ast.TableRef(parent.table.name))
            extra.append(ast.Comparison(
                "=",
                ast.ColumnRef(spec.table.name, fk_spec.column.name),
                ast.ColumnRef(parent.table.name, "id"),
            ))
        else:
            qualify = rng.random() < 0.5
            bindings = [(spec.table.name if qualify else None, spec)]
        where = self._where(bindings, extra)
        if rng.random() < 0.3:
            return self._aggregate_select(bindings, tables, where)
        return self._plain_select(bindings, tables, where)

    def _join_partner(
        self, spec: _TableSpec
    ) -> Optional[tuple[_ColumnSpec, _TableSpec]]:
        for cspec in spec.specs:
            if cspec.kind == "fk":
                for other in self.specs:
                    if other.table.name == cspec.parent:
                        return cspec, other
        return None

    def _projectable(
        self, bindings: list[tuple[Optional[str], _TableSpec]]
    ) -> list[tuple[Optional[str], _ColumnSpec]]:
        out: list[tuple[Optional[str], _ColumnSpec]] = []
        for binding, spec in bindings:
            pk_spec = _ColumnSpec(Column("id", INT), "uniform")
            out.append((binding, pk_spec))
            out.extend((binding, cspec) for cspec in spec.specs)
        return out

    def _plain_select(self, bindings, tables, where) -> ast.Select:
        rng = self.rng
        projectable = self._projectable(bindings)
        if rng.random() < 0.15:
            items: tuple[ast.SelectItem, ...] = (ast.SelectItem(ast.Star()),)
            projected = projectable
        else:
            k = rng.randint(1, min(3, len(projectable)))
            chosen = [
                projectable[i]
                for i in sorted(rng.sample(range(len(projectable)), k))
            ]
            items = tuple(
                ast.SelectItem(ast.ColumnRef(b, c.column.name))
                for b, c in chosen
            )
            projected = chosen
        distinct = rng.random() < 0.15
        order_by: tuple[ast.OrderItem, ...] = ()
        limit = offset = None
        if rng.random() < 0.5:
            pool = projected if distinct else projectable
            n_keys = rng.randint(1, min(2, len(pool)))
            keys = [pool[i] for i in sorted(rng.sample(range(len(pool)), n_keys))]
            order_by = tuple(
                ast.OrderItem(ast.ColumnRef(b, c.column.name),
                              desc=rng.random() < 0.5)
                for b, c in keys
            )
            if not distinct and rng.random() < 0.5:
                # Extend the sort with every binding's PK: the resulting
                # total order makes a LIMIT cut deterministic.
                order_by = order_by + tuple(
                    ast.OrderItem(ast.ColumnRef(b, "id"))
                    for b, _spec in bindings
                )
                limit = rng.randint(1, self.config.max_limit)
                if rng.random() < 0.3:
                    offset = rng.randint(1, 5)
        return ast.Select(
            items=items,
            tables=tuple(tables),
            where=where,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _aggregate_select(self, bindings, tables, where) -> ast.Select:
        rng = self.rng
        agg_cols = [
            (b, c) for b, c in self._projectable(bindings)
            if c.column.ctype.kind == TypeKind.INTEGER
        ]
        group_cols = [
            (b, c) for b, spec in bindings for c in spec.specs
            if c.kind in ("enum", "string") or (c.kind in ("uniform", "skew") and c.hi <= 8)
        ]
        items: list[ast.SelectItem] = []
        group_by: tuple[ast.Expr, ...] = ()
        if group_cols and rng.random() < 0.6:
            b, c = rng.choice(group_cols)
            key = ast.ColumnRef(b, c.column.name)
            group_by = (key,)
            items.append(ast.SelectItem(key))
        items.append(ast.SelectItem(ast.FuncCall("COUNT", star=True)))
        if agg_cols and rng.random() < 0.7:
            b, c = rng.choice(agg_cols)
            func = rng.choice(("SUM", "MIN", "MAX"))
            items.append(ast.SelectItem(ast.FuncCall(
                func, (ast.ColumnRef(b, c.column.name),),
                distinct=(func == "SUM" and rng.random() < 0.2),
            )))
        having = None
        if group_by and rng.random() < 0.3:
            having = ast.Comparison(
                ">", ast.FuncCall("COUNT", star=True),
                ast.Literal(rng.randint(1, 3)),
            )
        order_by: tuple[ast.OrderItem, ...] = ()
        if group_by and rng.random() < 0.4:
            order_by = (ast.OrderItem(group_by[0], desc=rng.random() < 0.5),)
        return ast.Select(
            items=tuple(items),
            tables=tuple(tables),
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
        )

    def dml(self) -> ast.Statement:
        rng = self.rng
        spec = rng.choice(self.specs)
        table = spec.table
        roll = rng.random()
        if roll < 0.45 or not spec.specs:
            pk = self.next_pk[table.name]
            self.next_pk[table.name] = pk + 1
            row: dict[str, Any] = {"id": pk}
            for cspec in spec.specs:
                row[cspec.column.name] = _gen_value(
                    rng, cspec, row, len(self.rows.get(cspec.parent, ()))
                )
            return ast.Insert(
                ast.TableRef(table.name),
                tuple(table.column_names),
                ((tuple(ast.Literal(row.get(c)) for c in table.column_names)),),
            )
        if roll < 0.8:
            cspec = rng.choice(spec.specs)
            value = self._sample_value(table.name, cspec)
            if value is None:
                value = _gen_value(rng, replace(cspec, null_rate=0.0), {},
                                   len(self.rows.get(cspec.parent, ())))
            assign: ast.Expr = ast.Literal(value)
            if (cspec.column.ctype.kind == TypeKind.INTEGER
                    and cspec.kind != "fk" and rng.random() < 0.3):
                assign = ast.Arithmetic(
                    "+", ast.ColumnRef(None, cspec.column.name),
                    ast.Literal(rng.randint(1, 5)),
                )
            where = self._dml_where(spec)
            return ast.Update(
                ast.TableRef(table.name),
                ((cspec.column.name, assign),),
                where=where,
            )
        return ast.Delete(ast.TableRef(table.name), where=self._dml_where(spec))

    def _dml_where(self, spec: _TableSpec) -> ast.Expr:
        rng = self.rng
        live = [row["id"] for row in self.rows[spec.table.name]]
        pk_ref = ast.ColumnRef(None, "id")
        if not live or rng.random() < 0.55:
            pk = rng.choice(live) if live else rng.randint(1, 10)
            return ast.Comparison("=", pk_ref, ast.Literal(pk))
        if rng.random() < 0.5 and spec.specs:
            cspec = rng.choice(spec.specs)
            return self._predicate(None, spec.table.name, cspec)
        pk = rng.choice(live)
        return ast.Between(pk_ref, ast.Literal(pk), ast.Literal(pk + 2))

    def statement(self) -> str:
        if self.rng.random() < self.config.dml_fraction:
            return self.dml().to_sql()
        return self.select().to_sql()


def generate_case(seed: int, config: Optional[GenConfig] = None) -> Case:
    """Generate one deterministic scenario for *seed*."""
    config = config or GenConfig()
    rng = random.Random(seed)
    specs = _gen_schema(rng, config)
    row_counts: dict[str, int] = {}
    rows = {
        spec.table.name: _gen_rows(rng, spec, config, row_counts)
        for spec in specs
    }
    gen = _WorkloadGen(rng, specs, rows, config)
    statements = [gen.statement() for _ in range(rng.randint(*config.statements))]
    return Case(
        seed=seed,
        tables=[spec.table for spec in specs],
        rows=rows,
        statements=statements,
    )
