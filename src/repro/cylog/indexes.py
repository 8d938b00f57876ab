"""Incrementally maintained multi-key hash indexes.

The CyLog engine uses this module two ways:

* it keeps a :class:`TupleIndexSet` per relation, holding one hash index
  for every key (tuple of term positions) the join planner chose at
  compile time — indexes are updated on every insertion instead of being
  rebuilt from scratch each semi-naive round;
* :class:`IntervalHierarchyIndex` gives transitive-closure strata over
  forest-shaped edge relations a third access path beside the hash probes:
  pre/post-order interval annotations (the XPath-accelerator encoding)
  under which "descendant of" is an O(1) label comparison and "all
  descendants" is one contiguous range scan, maintained incrementally
  under edge adds and retractions.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable, Iterator

Key = tuple
Positions = tuple[int, ...]

_EMPTY: frozenset = frozenset()


class MultiKeyHashIndex:
    """Hash map from key tuples to buckets (sets) of values.

    Buckets are maintained eagerly: :meth:`add` and :meth:`discard` keep the
    mapping exact, so lookups never revalidate.  :meth:`bucket` returns the
    live internal set for speed — callers must not mutate it.
    """

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        self._buckets: dict[Key, set] = {}

    def add(self, key: Key, value: Any) -> None:
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = {value}
        else:
            bucket.add(value)

    def discard(self, key: Key, value: Any) -> None:
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        bucket.discard(value)
        if not bucket:
            del self._buckets[key]

    def bucket(self, key: Key) -> frozenset | set:
        """The live bucket for ``key`` (empty when absent); do not mutate."""
        return self._buckets.get(key, _EMPTY)

    @property
    def key_count(self) -> int:
        return len(self._buckets)

    def keys(self) -> Iterator[Key]:
        return iter(self._buckets)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<multi-key hash index ({len(self._buckets)} keys)>"


class TupleIndexSet:
    """A family of position-keyed hash indexes over same-arity tuples.

    ``ensure((1,), rows)`` builds (once) an index keyed on position 1;
    :meth:`insert` then maintains every registered index incrementally.
    The engine registers the positions its join plans need up front, so the
    per-round "build index by scanning all tuples" cost of the seed
    implementation disappears.
    """

    __slots__ = ("_indexes",)

    def __init__(self) -> None:
        self._indexes: dict[Positions, MultiKeyHashIndex] = {}

    def ensure(self, positions: Positions, rows: Iterable[tuple]) -> None:
        """Register an index on ``positions``, backfilling from ``rows``."""
        if positions in self._indexes:
            return
        index = MultiKeyHashIndex()
        for row in rows:
            index.add(tuple(row[p] for p in positions), row)
        self._indexes[positions] = index

    def has(self, positions: Positions) -> bool:
        return positions in self._indexes

    def insert(self, row: tuple) -> None:
        """Add ``row`` to every registered index."""
        for positions, index in self._indexes.items():
            index.add(tuple(row[p] for p in positions), row)

    def remove(self, row: tuple) -> None:
        """Drop ``row`` from every registered index (no-op when absent)."""
        for positions, index in self._indexes.items():
            index.discard(tuple(row[p] for p in positions), row)

    def rows(self, positions: Positions, key: Key) -> frozenset | set:
        """Rows whose ``positions`` project onto ``key`` (live set; do not
        mutate).  The index must have been registered via :meth:`ensure`."""
        return self._indexes[positions].bucket(key)

    @property
    def index_count(self) -> int:
        return len(self._indexes)

    def specs(self) -> tuple[Positions, ...]:
        return tuple(self._indexes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<tuple index set on {sorted(self._indexes)}>"


#: A node identity for the interval index.  Joins conflate numerically
#: equal values (``1 == 1.0``) but keep booleans apart (``_bind_atom``'s
#: strict bool check), so node keys carry an explicit bool tag.
_NodeKey = tuple[bool, Any]


def _node_key(value: Any) -> _NodeKey:
    return (isinstance(value, bool), value)


class IntervalHierarchyIndex:
    """Pre/post-order interval annotations over a forest of 2-ary edges.

    Every node of the forest carries ``pre``/``post`` labels such that
    ``a`` is a strict ancestor of ``d`` iff ``pre(a) < pre(d)`` and
    ``post(d) < post(a)`` — intervals of unrelated nodes are disjoint, so
    the test needs no per-tree bookkeeping.  A node's descendants are the
    contiguous run of pre-ordered nodes inside its interval, served as a
    single range scan (:meth:`descendants`, :meth:`pairs`).

    Labels are *gap-allocated*: siblings are spread ``GAP`` slots apart at
    build time, so attaching a subtree usually relabels only the subtree
    being moved.  When a parent's interval runs out of slots the nearest
    enclosing subtree with enough slack is renumbered in place
    (``renumbers`` counts the extra nodes relabelled beyond the moved
    subtree); once cumulative relabelling exceeds ``REBUILD_CHURN`` times
    the node count, every label is rebuilt from scratch (``rebuilds``).

    The index doubles as the forest monitor: :meth:`attach` refuses
    self-loops, second parents (in-degree > 1) and cycles by flipping
    :attr:`valid` to ``False`` and returning ``None`` — the engine then
    soundly falls back to fixpoint evaluation until a :meth:`rebuild`
    from the live edge rows succeeds again.  While valid, :meth:`attach` /
    :meth:`detach` return the exact transitive-closure pairs the edge
    change added or removed, which is what keeps interval-answered strata
    byte-identical to the semi-naive path under churn and retraction.
    """

    GAP = 8
    #: Full label rebuild once relabelled nodes exceed this multiple of
    #: the live node count.
    REBUILD_CHURN = 4.0

    __slots__ = (
        "valid",
        "renumbers",
        "rebuilds",
        "scans",
        "_parent",
        "_children",
        "_value",
        "_pre",
        "_post",
        "_level",
        "_size",
        "_roots",
        "_next_label",
        "_churn",
        "_ordered",
        "_ordered_pre",
        "_dirty",
    )

    def __init__(self) -> None:
        #: True while the indexed edges form a forest (the monitor).
        self.valid = False
        #: Nodes relabelled beyond the subtree an operation had to move.
        self.renumbers = 0
        #: Full label rebuilds (initial builds and churn-triggered ones).
        self.rebuilds = 0
        #: Range scans served (descendant queries, closure enumerations,
        #: attach/detach subtree collections).
        self.scans = 0
        self._parent: dict[_NodeKey, _NodeKey] = {}
        self._children: dict[_NodeKey, set[_NodeKey]] = {}
        self._value: dict[_NodeKey, Any] = {}
        self._pre: dict[_NodeKey, int] = {}
        self._post: dict[_NodeKey, int] = {}
        self._level: dict[_NodeKey, int] = {}
        self._size: dict[_NodeKey, int] = {}
        self._roots: set[_NodeKey] = set()
        self._next_label = 0
        self._churn = 0
        self._ordered: list[_NodeKey] = []
        self._ordered_pre: list[int] = []
        self._dirty = True

    # -- observability ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._value)

    @property
    def edge_count(self) -> int:
        return len(self._parent)

    def level(self, value: Any) -> int | None:
        return self._level.get(_node_key(value))

    def subtree_size(self, value: Any) -> int | None:
        return self._size.get(_node_key(value))

    def interval(self, value: Any) -> tuple[int, int] | None:
        key = _node_key(value)
        pre = self._pre.get(key)
        return None if pre is None else (pre, self._post[key])

    def is_ancestor(self, ancestor: Any, descendant: Any) -> bool:
        """O(1) strict-ancestor test via interval containment."""
        a, d = _node_key(ancestor), _node_key(descendant)
        if a not in self._pre or d not in self._pre:
            return False
        return self._pre[a] < self._pre[d] and self._post[d] < self._post[a]

    # -- full (re)build -----------------------------------------------------
    def rebuild(self, rows: Iterable[tuple]) -> bool:
        """Rebuild from scratch over ``rows`` of ``(parent, child)`` edges.

        Returns :attr:`valid`: False when the edges are not a forest
        (self-loop, a child with two parents, or a cycle), in which case
        the index holds no labels and answers nothing.
        """
        self._parent.clear()
        self._children.clear()
        self._value.clear()
        self._pre.clear()
        self._post.clear()
        self._level.clear()
        self._size.clear()
        self._roots.clear()
        self._next_label = 0
        self._churn = 0
        self._dirty = True
        self.valid = True
        for row in rows:
            parent, child = _node_key(row[0]), _node_key(row[1])
            self._value.setdefault(parent, row[0])
            self._value.setdefault(child, row[1])
            if parent == child or child in self._parent:
                self.valid = False
                break
            self._parent[child] = parent
            self._children.setdefault(parent, set()).add(child)
        if self.valid:
            self._roots = {key for key in self._value if key not in self._parent}
            visited = 0
            for root in self._sorted(self._roots):
                visited += self._assign_tree(root)
            if visited != len(self._value):
                self.valid = False  # some component is a cycle with no root
        if not self.valid:
            self._parent.clear()
            self._children.clear()
            self._value.clear()
            self._roots.clear()
            return False
        self.rebuilds += 1
        return True

    # -- incremental maintenance -------------------------------------------
    def attach(self, parent: Any, child: Any) -> list[tuple] | None:
        """Add edge ``(parent, child)``; returns the closure pairs gained.

        Returns ``None`` — and flips :attr:`valid` — when the edge would
        break the forest shape (self-loop, second parent, cycle).
        """
        if not self.valid:
            return None
        pk, ck = _node_key(parent), _node_key(child)
        if pk == ck:
            self.valid = False
            return None
        current = self._parent.get(ck)
        if current is not None:
            if current == pk:
                return []  # edge already indexed (defensive no-op)
            self.valid = False  # second parent: in-degree > 1
            return None
        if ck in self._pre and pk in self._pre and self.is_ancestor(child, parent):
            self.valid = False  # parent lives inside child's subtree: cycle
            return None
        if pk not in self._value:
            self._value[pk] = parent
            self._new_root(pk)
        if ck not in self._value:
            self._value[ck] = child
            self._size[ck] = 1
            self._level[ck] = 0
            self._pre[ck] = self._post[ck] = 0  # placed below
            self._roots.add(ck)
        subtree = self._collect(ck)
        self.scans += 1
        ancestors = [pk]
        walk = self._parent.get(pk)
        while walk is not None:
            ancestors.append(walk)
            walk = self._parent.get(walk)
        gained = [
            (self._value[a], self._value[d]) for a in ancestors for d in subtree
        ]
        self._parent[ck] = pk
        self._children.setdefault(pk, set()).add(ck)
        self._roots.discard(ck)
        for a in ancestors:
            self._size[a] += len(subtree)
        self._place(pk, ck, len(subtree))
        self._maybe_rebuild_labels()
        self._dirty = True
        return gained

    def detach(self, parent: Any, child: Any) -> list[tuple] | None:
        """Drop edge ``(parent, child)``; returns the closure pairs lost.

        Returns ``None`` when the edge is not indexed (the caller's mirror
        of the edge relation diverged — rebuild before trusting answers).
        The detached subtree becomes a tree of its own: splitting a tree
        into a forest keeps the index valid.
        """
        if not self.valid:
            return None
        pk, ck = _node_key(parent), _node_key(child)
        if self._parent.get(ck) != pk:
            return None
        subtree = self._collect(ck)
        self.scans += 1
        ancestors = [pk]
        walk = self._parent.get(pk)
        while walk is not None:
            ancestors.append(walk)
            walk = self._parent.get(walk)
        lost = [(self._value[a], self._value[d]) for a in ancestors for d in subtree]
        del self._parent[ck]
        siblings = self._children[pk]
        siblings.discard(ck)
        if not siblings:
            del self._children[pk]
        for a in ancestors:
            self._size[a] -= len(subtree)
        if ck in self._children:
            # The split-off subtree becomes its own tree in a fresh label
            # range, so its intervals no longer nest inside the old parent.
            self._roots.add(ck)
            start = self._next_label
            self._next_label = self._relabel(ck, start, self.GAP, 0) + self.GAP
            self._churn += len(subtree)
        else:
            self._drop_node(ck)
        if pk not in self._children and pk not in self._parent:
            self._roots.discard(pk)
            self._drop_node(pk)
        self._maybe_rebuild_labels()
        self._dirty = True
        return lost

    # -- range scans --------------------------------------------------------
    def descendants(self, value: Any) -> list[Any]:
        """All strict descendants of ``value`` in pre-order: one range scan
        over the pre-ordered node array."""
        key = _node_key(value)
        if key not in self._pre:
            return []
        self._ensure_order()
        self.scans += 1
        lo = bisect_left(self._ordered_pre, self._pre[key]) + 1
        hi = bisect_left(self._ordered_pre, self._post[key], lo=lo)
        return [self._value[k] for k in self._ordered[lo:hi]]

    def pairs(self) -> Iterator[tuple]:
        """Every (ancestor, descendant) closure pair, one range scan per
        node over the shared pre-ordered array."""
        self._ensure_order()
        self.scans += 1
        ordered, pres, posts = self._ordered, self._ordered_pre, self._post
        for index, key in enumerate(ordered):
            hi = bisect_left(pres, posts[key], lo=index + 1)
            value = self._value[key]
            for descendant in ordered[index + 1 : hi]:
                yield (value, self._value[descendant])

    # -- internals ----------------------------------------------------------
    def _sorted(self, keys: Iterable[_NodeKey]) -> list[_NodeKey]:
        return sorted(keys, key=lambda k: repr(self._value[k]))

    def _collect(self, root: _NodeKey) -> list[_NodeKey]:
        """The subtree under ``root`` (inclusive) in deterministic DFS
        order — used while labels are in flux, so it walks the child map."""
        out: list[_NodeKey] = []
        stack = [root]
        while stack:
            node = stack.pop()
            out.append(node)
            children = self._children.get(node)
            if children:
                stack.extend(reversed(self._sorted(children)))
        return out

    def _new_root(self, key: _NodeKey) -> None:
        pre = self._next_label + self.GAP
        post = pre + 2 * self.GAP
        self._next_label = post
        self._pre[key] = pre
        self._post[key] = post
        self._level[key] = 0
        self._size[key] = 1
        self._roots.add(key)

    def _drop_node(self, key: _NodeKey) -> None:
        for mapping in (self._pre, self._post, self._level, self._size, self._value):
            mapping.pop(key, None)

    def _assign_tree(self, root: _NodeKey) -> int:
        """Label one whole tree at build time; returns its node count."""
        start = self._next_label
        self._next_label = self._relabel(root, start, self.GAP, 0) + self.GAP
        size = self._compute_sizes(root)
        self._roots.add(root)
        return size

    def _compute_sizes(self, root: _NodeKey) -> int:
        order = self._collect(root)
        for node in reversed(order):
            self._size[node] = 1 + sum(
                self._size[c] for c in self._children.get(node, ())
            )
        return self._size[root]

    def _relabel(self, root: _NodeKey, start: int, step: int, root_level: int) -> int:
        """DFS-relabel ``root``'s subtree from ``start`` with ``step``-sized
        gaps, setting levels from ``root_level``; returns the last label."""
        label = start
        stack: list[tuple[_NodeKey, int, bool]] = [(root, root_level, False)]
        while stack:
            node, level, closing = stack.pop()
            label += step
            if closing:
                self._post[node] = label
                continue
            self._pre[node] = label
            self._level[node] = level
            stack.append((node, level, True))
            children = self._children.get(node)
            if children:
                for child in reversed(self._sorted(children)):
                    stack.append((child, level + 1, False))
        return label

    def _place(self, parent: _NodeKey, child: _NodeKey, moved: int) -> None:
        """Fit ``child``'s just-attached subtree into ``parent``'s interval.

        Fast path: enough free slots after the last sibling — only the
        moved subtree is relabelled.  Otherwise the nearest enclosing
        subtree with slack is renumbered in place; as a last resort the
        whole tree moves to a fresh label range (always fits: ranges at
        the top are unbounded).
        """
        need = 2 * moved
        siblings = self._children[parent] - {child}
        last = max(
            (self._post[s] for s in siblings), default=self._pre[parent]
        )
        space = self._post[parent] - last - 1
        child_level = self._level[parent] + 1
        if space >= need:
            step = max(1, space // (need + 1))
            self._relabel(child, last, step, child_level)
            return
        node: _NodeKey | None = parent
        while node is not None:
            width = self._post[node] - self._pre[node] - 1
            if width >= 2 * self._size[node]:
                # Renumber this subtree in place: keep the node's own
                # labels, redistribute every descendant inside them.
                count = self._size[node] - 1  # descendants to relabel
                step = width // (2 * count + 1)
                label = self._pre[node]
                for c in self._sorted(self._children[node]):
                    label = self._relabel(c, label, step, self._level[node] + 1)
                self.renumbers += self._size[node] - moved
                self._churn += self._size[node]
                return
            node = self._parent.get(node)
        root = parent
        while root in self._parent:
            root = self._parent[root]
        start = self._next_label
        self._next_label = (
            self._relabel(root, start, self.GAP, self._level[root]) + self.GAP
        )
        self.renumbers += self._size[root] - moved
        self._churn += self._size[root]

    def _maybe_rebuild_labels(self) -> None:
        if self._churn <= self.REBUILD_CHURN * max(1, len(self._value)):
            return
        self._next_label = 0
        self._churn = 0
        for root in self._sorted(self._roots):
            start = self._next_label
            self._next_label = self._relabel(root, start, self.GAP, 0) + self.GAP
        self.rebuilds += 1
        self._dirty = True

    def _ensure_order(self) -> None:
        if not self._dirty:
            return
        self._ordered = sorted(self._pre, key=self._pre.__getitem__)
        self._ordered_pre = [self._pre[k] for k in self._ordered]
        self._dirty = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "valid" if self.valid else "invalid"
        return (
            f"<interval hierarchy index: {len(self._value)} nodes, "
            f"{len(self._parent)} edges, {state}>"
        )
