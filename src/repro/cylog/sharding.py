"""Hash-sharded relation storage and the engine's shard layout.

This module is the engine's partitioning story, in two pieces:

* :class:`ShardedRelation` / :class:`ShardedRelationStore` — drop-in
  replacements for :class:`~repro.cylog.engine.Relation` /
  :class:`~repro.cylog.engine.RelationStore` that hash-partition every
  relation by *key prefix* (the tuple's first position, routed through the
  process-independent :func:`~repro.cylog.indexes.stable_hash`).  Each
  shard keeps its own tuple set and its own incrementally maintained
  :class:`~repro.cylog.indexes.MultiKeyHashIndex` family, so lookups whose
  index key covers position 0 probe exactly one shard.  ``snapshot()`` unions
  the shards, so a sharded store is *byte-identical* to the single store
  it replaces — the property the ``shard-diff`` CI oracle gates on — and
  ``fingerprint()`` / ``shard_fingerprints()`` give stable digests for
  cheap cross-configuration comparisons.

* **Exchange repartitioning** — a :class:`ShardedRelation` can keep, next
  to its primary key-prefix partitioning, *repartitions*: full copies of
  the relation re-hashed on another term position, maintained
  incrementally on every ``add``/``discard`` exactly like the hash
  indexes.  A lookup whose index key misses position 0 — which would
  otherwise chain every shard's bucket — routes to a single repartition
  shard instead.  The join planner decides which repartitions exist
  (``PlanStep.exchange_position`` / ``CompiledProgram.repartition_specs``
  in :mod:`repro.cylog.safety`), weighing the duplicate-copy maintenance
  cost against the per-probe chained-lookup cost; both sides of a
  non-prefix join then align on the same shard of the join key.

Evaluation tasks always run inline against the engine's store, through
:func:`~repro.cylog.engine.run_rule_task`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.cylog.engine import Relation, RelationStore
from repro.cylog.indexes import stable_hash

Tuple_ = tuple[Any, ...]


def shard_of_value(value: Any, n_shards: int) -> int:
    """The shard a single routing value hashes to."""
    if n_shards <= 1:
        return 0
    return stable_hash(value) % n_shards


def shard_of(row: Sequence[Any], n_shards: int, position: int = 0) -> int:
    """The shard owning ``row``: the value at ``position`` hashed mod
    ``n_shards``.  Position 0 (the default) is the primary key-prefix
    routing; exchange repartitions route on other positions.

    Zero-arity rows (no value to hash) all live in shard 0.
    """
    if n_shards <= 1 or not row:
        return 0
    return stable_hash(row[position]) % n_shards


@dataclass(frozen=True)
class ShardConfig:
    """How an engine shards its store.

    ``shards`` is the number of hash partitions (1: the single store).

    ``exchange`` enables the exchange operator: the join planner may emit
    repartition steps for probes whose index key misses the shard key
    prefix, trading one incrementally maintained re-hashed copy of the
    relation for single-shard probes instead of chained ones.  Disabling
    it keeps the chained-lookup behaviour (and the single store's join
    plans) — the A/B knob the E10f bench uses.

    ``interval`` enables the interval access path: eligible
    transitive-closure strata are answered from an engine-side
    :class:`~repro.cylog.indexes.IntervalHierarchyIndex` (single range
    scans) instead of fixpoint joins, whenever the edge relation is a
    forest at run time.  Disabling it keeps the fixpoint behaviour (the
    A/B knob the E13 bench and the interval diff-oracle legs use).  Either
    way results are bit-identical.
    """

    shards: int = 1
    exchange: bool = True
    interval: bool = True

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")

    @property
    def sharded(self) -> bool:
        return self.shards > 1

    @property
    def plan_shards(self) -> int:
        """The shard count the join planner should see: repartition steps
        are only emitted when the exchange operator is enabled, so with
        ``exchange=False`` plans are compiled exactly as for the single
        store (the chained baseline keeps plan parity)."""
        return self.shards if self.exchange else 1


# ---------------------------------------------------------------------------
# Sharded relations
# ---------------------------------------------------------------------------


class ShardedRelation:
    """A relation hash-partitioned into N per-shard :class:`Relation` s.

    Mirrors the :class:`~repro.cylog.engine.Relation` API the engine
    consumes.  Rows are routed by :func:`shard_of` on their first
    position; an index lookup whose key covers position 0 routes to a
    single shard.  Other probes chain the per-shard buckets (the buckets
    stay live sets — callers must not mutate the result) — unless an
    *exchange repartition* is registered on one of the key's positions
    via :meth:`ensure_repartition`, in which case the probe routes to a
    single shard of the re-hashed copy instead.
    """

    __slots__ = (
        "arity",
        "n_shards",
        "_shards",
        "_index_specs",
        "_repartitions",
        "_snapshot",
        "tuples_copied",
    )

    def __init__(
        self,
        arity: int,
        n_shards: int,
        index_specs: Iterable[tuple[int, ...]] = (),
        repartition_positions: Iterable[int] = (),
    ) -> None:
        self.arity = arity
        self.n_shards = n_shards
        self._index_specs = tuple(index_specs)
        self._shards = [Relation(arity, self._index_specs) for _ in range(n_shards)]
        #: position -> per-shard re-hashed copies of the whole relation.
        self._repartitions: dict[int, list[Relation]] = {}
        #: Cached union of the shards, cleared by a changing add/discard.
        self._snapshot: frozenset | None = frozenset()
        self.tuples_copied = 0
        for position in repartition_positions:
            self.ensure_repartition(position)

    def shard_of(self, row: Tuple_) -> int:
        return shard_of(row, self.n_shards)

    def shard_sizes(self) -> tuple[int, ...]:
        return tuple(len(shard) for shard in self._shards)

    def ensure_repartition(self, position: int) -> None:
        """Register (and backfill) an exchange repartition on ``position``.

        The repartition is a full copy of the relation re-hashed by the
        value at ``position``, maintained incrementally from then on —
        the space-for-probes trade the planner's exchange cost model
        opted into.  Position 0 is the primary partitioning already.
        """
        if position == 0 or position in self._repartitions:
            return
        if not 0 <= position < self.arity:
            raise ValueError(
                f"repartition position {position} out of range for arity "
                f"{self.arity}"
            )
        parts = [Relation(self.arity, self._index_specs) for _ in range(self.n_shards)]
        for shard in self._shards:
            for row in shard:
                parts[shard_of(row, self.n_shards, position)].add(row)
        self._repartitions[position] = parts

    def repartition_positions(self) -> tuple[int, ...]:
        return tuple(sorted(self._repartitions))

    def repartition_shard(self, position: int, shard_id: int) -> Relation:
        return self._repartitions[position][shard_id]

    def add(self, row: Tuple_) -> bool:
        if not self._shards[shard_of(row, self.n_shards)].add(row):
            return False
        for position, parts in self._repartitions.items():
            parts[shard_of(row, self.n_shards, position)].add(row)
        self._snapshot = None
        return True

    def add_many(self, rows: Iterable[Tuple_]) -> set[Tuple_]:
        added = set()
        for row in rows:
            if self.add(row):
                added.add(row)
        return added

    def discard(self, row: Tuple_) -> bool:
        if not self._shards[shard_of(row, self.n_shards)].discard(row):
            return False
        for position, parts in self._repartitions.items():
            parts[shard_of(row, self.n_shards, position)].discard(row)
        self._snapshot = None
        return True

    def ensure_index(self, positions: tuple[int, ...]) -> None:
        for shard in self._shards:
            shard.ensure_index(positions)
        for parts in self._repartitions.values():
            for part in parts:
                part.ensure_index(positions)

    def lookup(self, positions: tuple[int, ...], key: Tuple_):
        """Rows whose ``positions`` project onto ``key``.

        When the key covers position 0 the shard is known and exactly one
        per-shard index is probed.  When it covers a registered exchange
        repartition instead, one shard of the re-hashed copy is probed.
        Otherwise the per-shard buckets are chained (live view, do not
        mutate).
        """
        for offset, position in enumerate(positions):
            if position == 0:
                target = shard_of_value(key[offset], self.n_shards)
                return self._shards[target].lookup(positions, key)
        if self._repartitions:
            for offset, position in enumerate(positions):
                parts = self._repartitions.get(position)
                if parts is not None:
                    target = shard_of_value(key[offset], self.n_shards)
                    return parts[target].lookup(positions, key)
        return _ChainedRows(
            [shard.lookup(positions, key) for shard in self._shards]
        )

    def match(self, pattern: Sequence[Any]) -> Iterable[Tuple_]:
        positions = tuple(i for i, v in enumerate(pattern) if v is not None)
        return self.lookup(positions, tuple(pattern[p] for p in positions))

    def __contains__(self, row: Tuple_) -> bool:
        return row in self._shards[shard_of(row, self.n_shards)]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __iter__(self) -> Iterator[Tuple_]:
        for shard in self._shards:
            yield from shard

    def snapshot(self) -> frozenset:
        """The cached union of the shards, built from their live sets (so
        the shards keep no snapshot copies of their own)."""
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = frozenset().union(*self._shards)
            self.tuples_copied += len(snapshot)
        return snapshot


class _ChainedRows:
    """A read-only chained view over per-shard row sets.

    Supports exactly what the join layer needs from a lookup result —
    ``len``, truthiness and iteration — without copying the buckets.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: list) -> None:
        self._parts = parts

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)

    def __bool__(self) -> bool:
        return any(self._parts)

    def __iter__(self) -> Iterator[Tuple_]:
        for part in self._parts:
            yield from part


class ShardedRelationStore(RelationStore):
    """Predicate name -> :class:`ShardedRelation`, creating on first use.

    The drop-in sharded counterpart of
    :class:`~repro.cylog.engine.RelationStore` — a subclass substituting
    the relation factory, so lookup, arity validation, ``snapshot()``
    shape (per-shard sets are unioned) and ``fingerprint()`` are literally
    the single store's code and every byte-identity oracle sees exactly
    what the single store would produce.
    """

    def __init__(
        self,
        n_shards: int,
        index_specs: Mapping[str, Iterable[tuple[int, ...]]] | None = None,
        repartition_specs: Mapping[str, Iterable[int]] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        super().__init__(index_specs)
        self.n_shards = n_shards
        #: predicate -> exchange repartition positions, applied to each
        #: relation as it is created (plus late registrations).
        self._repartition_specs: dict[str, set[int]] = {
            pred: set(positions)
            for pred, positions in (repartition_specs or {}).items()
        }

    def _make_relation(
        self, predicate: str, arity: int, index_specs: Iterable[tuple[int, ...]]
    ) -> ShardedRelation:
        positions = self._repartition_specs.get(predicate, ())
        return ShardedRelation(
            arity,
            self.n_shards,
            index_specs,
            repartition_positions=sorted(
                p for p in positions if 0 < p < arity
            ),
        )

    def ensure_repartition(self, predicate: str, position: int) -> None:
        """Register an exchange repartition, now or when the relation is
        created (runtime-built plans may precede the first fact)."""
        self._repartition_specs.setdefault(predicate, set()).add(position)
        relation = self._relations.get(predicate)
        if relation is not None and 0 < position < relation.arity:
            relation.ensure_repartition(position)

    def shard_fingerprints(self) -> tuple[str, ...]:
        """One stable digest per shard (cross-process comparable thanks to
        :func:`~repro.cylog.indexes.stable_hash` routing)."""
        return tuple(
            fingerprint_snapshot(
                {
                    name: frozenset(rel._shards[shard_id])
                    for name, rel in self._relations.items()
                }
            )
            for shard_id in range(self.n_shards)
        )

    def shard_sizes(self) -> dict[str, tuple[int, ...]]:
        return {name: rel.shard_sizes() for name, rel in self._relations.items()}


def fingerprint_snapshot(snapshot: Mapping[str, frozenset]) -> str:
    """A stable content digest of a relation snapshot.

    Rows are serialised by ``repr`` and sorted, so two stores agree on the
    fingerprint exactly when their snapshots are byte-identical —
    regardless of sharding or hash randomisation.
    """
    digest = hashlib.sha256()
    for predicate in sorted(snapshot):
        digest.update(predicate.encode("utf-8"))
        digest.update(b"\x00")
        for row in sorted(snapshot[predicate], key=repr):
            digest.update(repr(row).encode("utf-8"))
            digest.update(b"\x01")
    return digest.hexdigest()


def build_store(
    config: ShardConfig,
    index_specs: Mapping[str, Iterable[tuple[int, ...]]] | None = None,
    repartition_specs: Mapping[str, Iterable[int]] | None = None,
) -> "RelationStore | ShardedRelationStore":
    """The store a :class:`ShardConfig` calls for: plain when unsharded."""
    if config.sharded:
        return ShardedRelationStore(
            config.shards,
            index_specs,
            repartition_specs if config.exchange else None,
        )
    return RelationStore(index_specs)
