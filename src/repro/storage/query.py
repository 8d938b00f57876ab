"""Relational-algebra query builder.

A :class:`Query` is an immutable pipeline description; ``execute`` runs it
and returns a list of row dicts.  Supported operators: scan, where
(selection), project (with computed columns), inner/left hash joins,
group-by with aggregates, order-by, distinct, limit/offset.

Selections directly on a table scan can read an index instead: when an
:class:`~repro.storage.expr.Expr` predicate's top-level ``and`` holds
``col(c) == <hashable literal>`` for every column of one of the table's
hash indexes (unique ones included), :meth:`Query.where` reads that one
index bucket and runs the full predicate on its rows only.  Buckets keep
scan order, so the result equals the scan's, rows and order.  Any other
shape — ``or``, ``~``, ``in_``, a callable, a selection after another
operator — scans.  :meth:`Query.from_rows` never reads an index, which
makes it the scan's oracle.

Alongside the callable pipeline every query threads a structural *plan
fingerprint* and the set of source :class:`~repro.storage.table.Table`
objects it reads.  :meth:`Query.execute_cached` uses the pair to memoise
results in the owning database's :class:`~repro.storage.cache.QueryCache`,
keyed on (plan, table versions) — repeated reads between mutations are
served from memory and become stale automatically when any source table's
version moves.  Expression predicates key on their (value-based) ``repr``;
opaque callables key on object identity, so reuse the same function object
to share cache entries.  Queries over ad-hoc row lists have no plan and
simply bypass the cache.

>>> from repro.storage import Database, TableSchema, Column, ColumnType, col
>>> # Query.scan(db, "worker").where(col("skill") > 0.5).order_by("id").execute()
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.storage.database import Database
from repro.storage.errors import StorageError, UnknownColumnError
from repro.storage.expr import BinOp, Col, Expr, Lit
from repro.storage.table import Table

Row = dict[str, Any]

#: name -> (needs_column, fold over values)
_AGGREGATES: dict[str, Callable[[list[Any]], Any]] = {
    "count": len,
    "sum": sum,
    "min": min,
    "max": max,
    "avg": lambda values: sum(values) / len(values) if values else None,
    "first": lambda values: values[0] if values else None,
    "collect": list,
}


def _opaque(value: Expr | Callable) -> Hashable:
    """Plan-key component for a predicate/evaluator.

    Expr reprs are compositional over column names and literal values, so
    they identify the computation; arbitrary callables are keyed (and kept
    alive) by object identity.
    """
    return repr(value) if isinstance(value, Expr) else value


def _equalities(predicate: Expr) -> dict[str, Any]:
    """``column -> literal`` for the ``col == hashable literal`` conjuncts
    at the top of ``predicate``'s ``and`` tree (the first one per column)."""
    bindings: dict[str, Any] = {}
    pending = [predicate]
    while pending:
        node = pending.pop()
        if not isinstance(node, BinOp):
            continue
        if node.op == "and":
            pending += (node.right, node.left)
            continue
        if node.op != "==":
            continue
        column, literal = node.left, node.right
        if isinstance(column, Lit):
            column, literal = literal, column
        if isinstance(column, Col) and isinstance(literal, Lit):
            try:
                hash(literal.value)
            except TypeError:
                continue
            bindings.setdefault(column.name, literal.value)
    return bindings


class Query:
    """An immutable chain of relational operators."""

    def __init__(
        self,
        source: Callable[[], Iterable[Row]],
        plan: Hashable | None = None,
        tables: tuple[Table, ...] = (),
        db: Database | None = None,
        scanned: Table | None = None,
    ) -> None:
        self._source = source
        self._plan = plan
        self._tables = tables
        self._db = db
        #: The table of a bare :meth:`scan`; ``None`` once any operator is
        #: applied.  Only a selection directly on a scan can read an index.
        self._scanned = scanned

    def _derive(self, source: Callable[[], Iterable[Row]], op: tuple) -> "Query":
        plan = (*op, self._plan) if self._plan is not None else None
        return Query(source, plan=plan, tables=self._tables, db=self._db)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def scan(cls, db: Database, table_name: str) -> "Query":
        """Full scan of a table (rows are not copied until projection)."""
        table = db.table(table_name)
        return cls(
            table._iter_internal,
            plan=("scan", table_name),
            tables=(table,),
            db=db,
            scanned=table,
        )

    @classmethod
    def from_rows(cls, rows: Sequence[Row]) -> "Query":
        """Query over an in-memory list of row dicts (never cached)."""
        materialised = list(rows)
        return cls(lambda: materialised)

    # -- operators --------------------------------------------------------------
    def where(self, predicate: Expr | Callable[[Row], bool]) -> "Query":
        """Keep rows satisfying ``predicate`` (an Expr or a plain callable).

        Directly on a :meth:`scan`, an :class:`Expr` whose top-level
        conjuncts include ``col(c) == <hashable literal>`` for every column
        of one of the table's hash indexes (unique ones included) reads
        that index's one bucket instead of the whole table.  The full
        predicate still runs on every probed row, so ``in_``, ``or``,
        ``~`` and the other conjuncts filter as before, and the bucket
        keeps scan order: the result equals the scan's, rows and order.
        A predicate that would raise on some row outside the bucket no
        longer runs on that row.
        """
        test = predicate.evaluate if isinstance(predicate, Expr) else predicate
        parent = self._source
        if self._scanned is not None and isinstance(predicate, Expr):
            parent = self._scanned._probe(_equalities(predicate)) or parent
        return self._derive(
            lambda: (row for row in parent() if test(row)),
            ("where", _opaque(predicate)),
        )

    def project(self, *columns: str, **computed: Expr | Callable[[Row], Any]) -> "Query":
        """Project to ``columns`` plus ``computed`` alias=expression pairs."""
        parent = self._source
        evaluators = {
            alias: (value.evaluate if isinstance(value, Expr) else value)
            for alias, value in computed.items()
        }

        def source() -> Iterable[Row]:
            for row in parent():
                try:
                    out = {name: row[name] for name in columns}
                except KeyError as exc:
                    raise UnknownColumnError(
                        f"projection references missing column {exc.args[0]!r}"
                    ) from None
                for alias, evaluate in evaluators.items():
                    out[alias] = evaluate(row)
                yield out

        op = (
            "project",
            columns,
            tuple((alias, _opaque(value)) for alias, value in computed.items()),
        )
        return self._derive(source, op)

    def rename(self, **mapping: str) -> "Query":
        """Rename columns: ``rename(new=old)``; unlisted columns pass through."""
        parent = self._source
        inverse = {old: new for new, old in mapping.items()}

        def source() -> Iterable[Row]:
            for row in parent():
                yield {inverse.get(name, name): value for name, value in row.items()}

        return self._derive(source, ("rename", tuple(sorted(mapping.items()))))

    def prefix(self, prefix: str) -> "Query":
        """Prefix every column name (used to disambiguate join sides)."""
        parent = self._source

        def source() -> Iterable[Row]:
            for row in parent():
                yield {f"{prefix}{name}": value for name, value in row.items()}

        return self._derive(source, ("prefix", prefix))

    def join(
        self,
        other: "Query",
        on: Sequence[tuple[str, str]],
        how: str = "inner",
    ) -> "Query":
        """Hash join with ``other``; ``on`` is (left_column, right_column) pairs.

        ``how`` is ``"inner"`` or ``"left"``.  On a left join, unmatched left
        rows get ``None`` for every right column.  Name collisions are an
        error — disambiguate with :meth:`prefix` or :meth:`rename` first.
        """
        if how not in ("inner", "left"):
            raise StorageError(f"unsupported join type: {how!r}")
        if not on:
            raise StorageError("join requires at least one column pair")
        left_cols = [pair[0] for pair in on]
        right_cols = [pair[1] for pair in on]
        parent = self._source
        other_source = other._source

        def source() -> Iterable[Row]:
            table: dict[tuple, list[Row]] = {}
            right_columns: list[str] = []
            for row in other_source():
                if not right_columns:
                    right_columns = list(row.keys())
                key = tuple(row[c] for c in right_cols)
                table.setdefault(key, []).append(row)
            for row in parent():
                key = tuple(row[c] for c in left_cols)
                matches = table.get(key, ())
                if matches:
                    for match in matches:
                        merged = dict(row)
                        for name, value in match.items():
                            if name in merged and name not in right_cols:
                                raise StorageError(
                                    f"join column collision on {name!r}; "
                                    "use .prefix() to disambiguate"
                                )
                            if name not in left_cols or name not in merged:
                                merged[name] = value
                        yield merged
                elif how == "left":
                    merged = dict(row)
                    for name in right_columns:
                        merged.setdefault(name, None)
                    yield merged

        plan = None
        if self._plan is not None and other._plan is not None:
            plan = ("join", self._plan, other._plan, tuple(map(tuple, on)), how)
        return Query(
            source,
            plan=plan,
            tables=self._tables + other._tables,
            db=self._db or other._db,
        )

    def group_by(self, *keys: str) -> "GroupedQuery":
        """Group rows by ``keys`` in preparation for :meth:`GroupedQuery.aggregate`."""
        return GroupedQuery(
            self._source, keys, plan=self._plan, tables=self._tables, db=self._db
        )

    def order_by(self, *columns: str, desc: bool = False) -> "Query":
        """Sort by ``columns``; ``None`` sorts first (ascending)."""
        parent = self._source

        def sort_key(row: Row) -> tuple:
            key = []
            for name in columns:
                value = row[name]
                key.append((value is not None, value) if not desc else (value is None, value))
            return tuple(key)

        def source() -> Iterable[Row]:
            try:
                return sorted(parent(), key=sort_key, reverse=desc)
            except TypeError as exc:
                raise StorageError(f"order_by on incomparable values: {exc}") from exc

        return self._derive(source, ("order_by", columns, desc))

    def distinct(self) -> "Query":
        """Drop duplicate rows (all columns considered)."""
        parent = self._source

        def source() -> Iterable[Row]:
            seen: set[tuple] = set()
            for row in parent():
                key = tuple(sorted((k, _freeze(v)) for k, v in row.items()))
                if key not in seen:
                    seen.add(key)
                    yield row

        return self._derive(source, ("distinct",))

    def limit(self, count: int, offset: int = 0) -> "Query":
        """Keep ``count`` rows after skipping ``offset``."""
        if count < 0 or offset < 0:
            raise StorageError("limit/offset must be non-negative")
        parent = self._source

        def source() -> Iterable[Row]:
            for position, row in enumerate(parent()):
                if position < offset:
                    continue
                if position >= offset + count:
                    break
                yield row

        return self._derive(source, ("limit", count, offset))

    # -- execution ---------------------------------------------------------------
    def execute(self) -> list[Row]:
        """Run the pipeline, returning fresh row dicts."""
        return [dict(row) for row in self._source()]

    @property
    def cacheable(self) -> bool:
        """True when the pipeline has a structural plan rooted in table scans."""
        return self._plan is not None and self._db is not None

    def execute_cached(self) -> list[Row]:
        """Like :meth:`execute`, memoised in the database's query cache.

        Results are keyed on (plan fingerprint, source-table versions); any
        mutation of a source table — including a transaction rollback —
        bumps its version and forces recomputation.  Rows are copied on
        every call, so callers may mutate them freely.  Uncacheable queries
        (ad-hoc row sources, no database) fall back to :meth:`execute`.
        """
        if not self.cacheable:
            return self.execute()
        rows = self._db.query_cache.fetch(
            self._plan, self._tables, lambda: [dict(row) for row in self._source()]
        )
        return [dict(row) for row in rows]

    def count(self) -> int:
        """Number of result rows (no materialisation of dict copies)."""
        return sum(1 for _ in self._source())

    def first(self) -> Row | None:
        """First result row or ``None``."""
        for row in self._source():
            return dict(row)
        return None

    def scalars(self, column: str) -> list[Any]:
        """The values of one column, in pipeline order."""
        return [row[column] for row in self._source()]


class GroupedQuery:
    """Intermediate produced by :meth:`Query.group_by`."""

    def __init__(
        self,
        source: Callable[[], Iterable[Row]],
        keys: tuple[str, ...],
        plan: Hashable | None = None,
        tables: tuple[Table, ...] = (),
        db: Database | None = None,
    ) -> None:
        self._source = source
        self._keys = keys
        self._plan = plan
        self._tables = tables
        self._db = db

    def aggregate(self, **specs: tuple[str, str | None]) -> Query:
        """Aggregate each group.

        Each keyword maps an output alias to ``(function, column)`` where
        function is one of count/sum/min/max/avg/first/collect and column may
        be ``None`` only for ``count``.

        >>> # q.group_by("team").aggregate(n=("count", None), best=("max", "skill"))
        """
        for alias, (func, column) in specs.items():
            if func not in _AGGREGATES:
                raise StorageError(f"unknown aggregate {func!r} for {alias!r}")
            if column is None and func != "count":
                raise StorageError(f"aggregate {func!r} needs a column")
        parent = self._source
        keys = self._keys

        def source() -> Iterable[Row]:
            groups: dict[tuple, list[Row]] = {}
            for row in parent():
                groups.setdefault(tuple(row[k] for k in keys), []).append(row)
            for key_values, members in groups.items():
                out: Row = dict(zip(keys, key_values))
                for alias, (func, column) in specs.items():
                    values = (
                        members
                        if column is None
                        else [m[column] for m in members if m[column] is not None]
                    )
                    if column is None:
                        out[alias] = len(members)
                    elif not values and func in ("min", "max", "sum"):
                        out[alias] = None if func != "sum" else 0
                    else:
                        out[alias] = _AGGREGATES[func](values)
                yield out

        plan = None
        if self._plan is not None:
            plan = (
                "aggregate",
                keys,
                tuple((alias, spec) for alias, spec in specs.items()),
                self._plan,
            )
        return Query(source, plan=plan, tables=self._tables, db=self._db)


def _freeze(value: Any) -> Any:
    """Make a value hashable for DISTINCT (lists/dicts become tuples)."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, set)):
        return tuple(_freeze(v) for v in value)
    return value
