"""SupportIndex's wildcard reverse index.

Anonymous-variable supports are hashed on their concrete positions, so a
retracted row finds its dependents with one probe per pattern shape.  The
equivalence test pins the probe to a brute-force scan over every recorded
pattern (including the bool/int/float mix a plain hash conflates); the
work-bound test pins the work per retracted row.
"""

from __future__ import annotations

import random

import pytest

from repro.cylog import incremental
from repro.cylog.incremental import SupportIndex, _matches

#: Values whose hashes collide (``True == 1 == 1.0``) next to ones that
#: do not, so random patterns exercise the strict keys.
VALUES = (0, 1, 2, True, False, 1.0, 2.0, "a", "b")


def _random_dep(rng: random.Random, arity: int) -> tuple:
    shape = rng.choice(("prefix", "suffix", "open", "concrete", "mixed"))
    row = [rng.choice(VALUES) for _ in range(arity)]
    if shape == "prefix":  # (x, _, _): concrete position 0 only
        return (row[0], *[None] * (arity - 1))
    if shape == "suffix":  # (_, x, ...): concrete position 1 only
        return (None, row[1], *row[2:]) if arity > 1 else (None,)
    if shape == "open":  # (_, _): every position anonymous
        return tuple([None] * arity)
    if shape == "concrete":
        return tuple(row)
    return tuple(v if rng.random() < 0.5 else None for v in row)


def _brute_force(recorded, predicate, row) -> list:
    """Every recorded dependency that consumes ``row``: exact rows by the
    store's equality (its sets conflate ``1`` and ``True`` too), wildcard
    patterns by the strict pattern match."""
    out = []
    for ref in recorded:
        for dep_pred, dep_row in ref[2][1]:
            if dep_pred != predicate or len(dep_row) != len(row):
                continue
            if None not in dep_row:
                if dep_row == row:
                    out.append((ref, None))
            elif _matches(dep_row, row):
                out.append((ref, dep_row))
    return out


def _strict(value):
    """``value`` up to the strict equality the index keeps: ``1 == 1.0``
    but neither equals ``True``."""
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (int, float)):
        return ("num", float(value))
    return (type(value).__name__, value)


def _canonical(pairs) -> set:
    """Each (support, pattern) once, with numbers normalised: the index
    keeps one entry for dependencies that are equal under the store's
    (exact rows) or the strict (patterns) equality."""
    return {
        (repr(ref), None if pattern is None else tuple(map(_strict, pattern)))
        for ref, pattern in pairs
    }


@pytest.mark.parametrize("seed", range(4))
def test_dependents_match_brute_force_scan(seed):
    rng = random.Random(seed)
    index = SupportIndex()
    recorded = []
    for n in range(300):
        arity = rng.choice((1, 2, 3))
        deps = tuple(
            ("e", _random_dep(rng, arity)) for _ in range(rng.choice((1, 2)))
        )
        key = (n % 5, deps)
        if index.add("h", (n,), key):
            recorded.append(("h", (n,), key))
    # Drop a third again, so the probe also sees emptied buckets.
    for ref in recorded[::3]:
        assert index.drop(*ref) == 0
    live = [ref for i, ref in enumerate(recorded) if i % 3]
    for _ in range(400):
        row = tuple(rng.choice(VALUES) for _ in range(rng.choice((1, 2, 3))))
        got = _canonical(index.dependents("e", row))
        assert got == _canonical(_brute_force(live, "e", row)), row


def test_bool_and_int_patterns_stay_apart():
    index = SupportIndex()
    bool_ref = ("h", ("b",), (0, (("e", (True, None)),)))
    int_ref = ("h", ("i",), (0, (("e", (1, None)),)))
    float_ref = ("h", ("f",), (0, (("e", (1.0, None)),)))
    for ref in (bool_ref, int_ref, float_ref):
        index.add(*ref)
    assert {ref for ref, _ in index.dependents("e", (1, 5))} == {int_ref, float_ref}
    assert {ref for ref, _ in index.dependents("e", (True, 5))} == {bool_ref}
    index.drop(*bool_ref)
    assert index.dependents("e", (True, 5)) == []
    assert {ref for ref, _ in index.dependents("e", (1, 5))} == {int_ref, float_ref}


def test_emptied_index_keeps_no_buckets():
    index = SupportIndex()
    key_a = (0, (("e", (1, None)),))
    key_b = (1, (("e", (1, 2)), ("e", (None, 3))))
    assert index.add("d", (1,), key_a)
    assert not index.add("d", (1,), key_a)
    assert index.add("d", (1,), key_b)
    assert index.count("d", (1,)) == 2
    assert index.drop("d", (1,), key_a) == 1
    index.discard_tuple("d", (1,))
    assert index.count("d", (1,)) == 0
    assert index.dependents("e", (1, 2)) == []
    assert index._wild == {} and index._exact == {}


def test_retraction_probes_a_bucket_not_every_pattern(monkeypatch):
    """10k ``(x, _)`` supports: retracting one row must not match every
    pattern of the predicate."""
    index = SupportIndex()
    for x in range(10_000):
        index.add("touched", (x,), (0, (("link", (x, None)),)))
    calls = 0

    def counting_matches(pattern, row):
        nonlocal calls
        calls += 1
        return _matches(pattern, row)

    monkeypatch.setattr(incremental, "_matches", counting_matches)
    found = index.dependents("link", (4242, 4243))
    assert [ref for ref, _ in found] == [
        ("touched", (4242,), (0, (("link", (4242, None)),)))
    ]
    assert calls <= 2
