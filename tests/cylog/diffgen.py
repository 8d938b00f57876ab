"""Shared hypothesis generators for the differential-testing oracles.

``stratified_program`` builds random stratified programs (negation,
comparisons, optional aggregate — safe by construction) and ``update_ops``
random add/retract streams over the EDB predicates, for the
``engine-diff`` oracle (incremental vs from-scratch).  ``forest_ops``
churns the tree-shaped ``TREE_PROGRAM`` for its tree-churn leg, in the
same ``(assert?, predicate, row)`` shape.
"""

from __future__ import annotations

import hypothesis.strategies as st

EDB = ("e1", "e2")
_VARS = ("X", "Y", "Z")

constants = st.integers(min_value=0, max_value=4)


def _atom(pred: str, left: str, right: str) -> str:
    return f"{pred}({left}, {right})"


@st.composite
def stratified_program(draw) -> str:
    """A random stratified program with negation, comparisons and an
    optional aggregate, safe by construction.

    Stratum discipline: ``d1`` rules read only EDB (negation of EDB
    allowed); ``d2`` rules read EDB/``d1``/``d2`` positively and may negate
    ``d1``; the aggregate ``d3`` reads ``d2``.
    """
    lines: list[str] = []
    for pred in EDB:
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            lines.append(f"{pred}({draw(constants)}, {draw(constants)}).")

    def body_atoms(pool: tuple[str, ...], count: int) -> tuple[list[str], list[str]]:
        atoms, chain = [], ["X"]
        for position in range(count):
            pred = draw(st.sampled_from(pool))
            left = chain[-1] if position else "X"
            right = draw(st.sampled_from(_VARS)) if position else "Y"
            atoms.append(_atom(pred, left, right))
            chain.extend([left, right])
        return atoms, chain

    # Stratum 1: d1 from EDB only.
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        atoms, chain = body_atoms(EDB, draw(st.integers(min_value=1, max_value=2)))
        if draw(st.booleans()):
            atoms.append(f"not {_atom(draw(st.sampled_from(EDB)), chain[0], chain[-1])}")
        if draw(st.booleans()):
            atoms.append(f"{chain[0]} <= {chain[-1]}")
        lines.append(f"d1({chain[0]}, {chain[-1]}) :- " + ", ".join(atoms) + ".")

    # Stratum 2: d2 from EDB, d1 and (recursively) d2; may negate d1.
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        pool = EDB + ("d1", "d2")
        atoms, chain = body_atoms(pool, draw(st.integers(min_value=1, max_value=3)))
        if draw(st.booleans()):
            atoms.append(f"not {_atom('d1', chain[0], chain[-1])}")
        lines.append(f"d2({chain[0]}, {chain[-1]}) :- " + ", ".join(atoms) + ".")

    # Stratum 3: one aggregate over d2.
    if draw(st.booleans()):
        func = draw(st.sampled_from(("count", "sum", "min", "max")))
        lines.append(f"d3(X, {func}<Y>) :- d2(X, Y).")

    # Anonymous-variable projections: their supports are wildcard patterns,
    # which the support index hashes by shape — concrete prefix (d4) and
    # concrete suffix (d6).
    if draw(st.booleans()):
        lines.append("d4(X) :- e1(X, _).")
    if draw(st.booleans()):
        lines.append("d6(Y) :- e2(_, Y).")

    # A join on the *second* positions: the probe's index key misses
    # position 0.
    if draw(st.booleans()):
        lines.append("d5(X, Y) :- e1(X, Z), e2(Y, Z).")
    return "\n".join(lines)


#: Row values: small ints plus floats ``==`` conflates with them, which
#: index buckets and wildcard support patterns must treat as equal (bools
#: conflate too; the support-index unit tests cover them).
row_values = st.one_of(constants, st.sampled_from((0.0, 1.0, 2.5)))

#: One update operation: (assert?, predicate, row).
update_ops = st.lists(
    st.tuples(st.booleans(), st.sampled_from(EDB), st.tuples(row_values, row_values)),
    min_size=1,
    max_size=10,
)


#: A linear transitive closure over ``edge`` with a join, a negation and
#: an aggregate downstream, so closure deltas under DRed over-delete /
#: re-derive must propagate through every maintenance path; ``unreach``
#: negates the closure itself.
TREE_PROGRAM = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- tc(X, Y), edge(Y, Z).
pair(X, Z) :- tc(X, Y), tc(Y, Z).
leafless(X) :- tc(X, Y), not edge(X, Y).
fanout(X, count<Y>) :- tc(X, Y).
unreach(X, Y) :- edge(X, Y), not tc(Y, X).
"""

#: Node ids for forest churn.  Small enough that random attach streams
#: routinely create second parents, self-loops and cycles.
_NODES = st.integers(min_value=0, max_value=11)


@st.composite
def forest_ops(draw) -> list[tuple[bool, str, tuple[int, int]]]:
    """Churn over ``edge`` in ``update_ops``' shape: attaches, grows (a
    new child under an existing edge's child), detaches, subtree moves
    (detach, then re-attach under a new parent) and shortcuts (``a -> c``
    over an existing ``a -> b -> c``), which give closure rows a second
    derivation, so a later detach makes DRed over-delete rows it must
    re-derive.  Duplicate attaches and forest-breaking edges are left in
    on purpose."""
    ops: list[tuple[bool, str, tuple[int, int]]] = []
    edges: list[tuple[int, int]] = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(
            st.sampled_from(("attach", "grow", "detach", "move", "shortcut"))
        )
        if kind == "grow" and edges:
            grown = (draw(st.sampled_from(edges))[1], draw(_NODES))
            ops.append((True, "edge", grown))
            edges.append(grown)
            continue
        if kind == "shortcut" and edges:
            first = draw(st.sampled_from(edges))
            nexts = [edge for edge in edges if edge[0] == first[1]]
            if nexts:
                shortcut = (first[0], draw(st.sampled_from(nexts))[1])
                ops.append((True, "edge", shortcut))
                edges.append(shortcut)
                continue
            kind = "attach"
        if kind == "attach" or not edges:
            edge = (draw(_NODES), draw(_NODES))
            ops.append((True, "edge", edge))
            edges.append(edge)
            continue
        edge = draw(st.sampled_from(edges))
        ops.append((False, "edge", edge))
        edges.remove(edge)
        if kind == "move":  # re-root the child under a fresh parent
            moved = (draw(_NODES), edge[1])
            ops.append((True, "edge", moved))
            edges.append(moved)
    return ops
