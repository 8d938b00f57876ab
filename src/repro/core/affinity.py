"""The worker affinity matrix (paper §2.2).

The affinity matrix "maintains the information on how a pair of workers is
expected to work well".  We implement it as a symmetric sparse matrix in
[0, 1], plus:

* :func:`affinity_from_factors` — build initial affinities from human
  factors (shared languages, geographic proximity — "if workers live in the
  same geographic area, their affinity value is larger" — and skill
  complementarity),
* :meth:`AffinityMatrix.reinforce` — learn from observed collaboration
  outcomes via an exponential moving average,
* team-level *intra-affinity* aggregations used by the assignment
  algorithms of [9] (sum over internal pairs, or density).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.workers import Worker
from repro.errors import PlatformError
from repro.util.text import clamp


def _pair(a: str, b: str) -> tuple[str, str]:
    if a == b:
        raise PlatformError(f"affinity is defined between distinct workers, got {a!r} twice")
    return (a, b) if a < b else (b, a)


class AffinityMatrix:
    """Symmetric sparse worker-to-worker affinity in [0, 1]."""

    def __init__(self, default: float = 0.0) -> None:
        self.default = clamp(default, 0.0, 1.0)
        self._values: dict[tuple[str, str], float] = {}

    def set(self, a: str, b: str, value: float) -> None:
        self._values[_pair(a, b)] = clamp(value, 0.0, 1.0)

    def get(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        return self._values.get(_pair(a, b), self.default)

    def pairs(self) -> Iterator[tuple[str, str, float]]:
        for (a, b), value in sorted(self._values.items()):
            yield a, b, value

    def __len__(self) -> int:
        return len(self._values)

    # -- team aggregations -------------------------------------------------------
    def intra_affinity(self, team: Sequence[str]) -> float:
        """Sum of pairwise affinities inside ``team`` (the clique weight
        maximised by the assignment algorithms).  ``math.fsum`` rounds once,
        so the score is bit-identical for every ordering of the members."""
        members = list(team)
        get = self.get
        return math.fsum(
            [get(a, b) for i, a in enumerate(members) for b in members[i + 1:]]
        )

    def density(self, team: Sequence[str]) -> float:
        """Mean pairwise affinity (0.0 for singleton teams)."""
        size = len(team)
        if size < 2:
            return 0.0
        return self.intra_affinity(team) / (size * (size - 1) / 2)

    def min_pair(self, team: Sequence[str]) -> float:
        """Weakest internal link (1.0 for singleton teams)."""
        members = list(team)
        if len(members) < 2:
            return 1.0
        return min(
            self.get(a, b)
            for i, a in enumerate(members)
            for b in members[i + 1:]
        )

    def marginal_gain(self, team: Sequence[str], candidate: str) -> float:
        """Affinity added by joining ``candidate`` to ``team``."""
        return sum(self.get(member, candidate) for member in team)

    # -- learning -------------------------------------------------------------
    def reinforce(
        self, team: Sequence[str], outcome_quality: float, learning_rate: float = 0.2
    ) -> None:
        """Blend observed collaboration quality into every internal pair.

        ``outcome_quality`` in [0, 1]; EMA with the given learning rate, so
        repeated successful collaborations raise affinity (the "comfort
        level" of workers who worked well together).
        """
        outcome_quality = clamp(outcome_quality, 0.0, 1.0)
        members = list(team)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                current = self.get(a, b)
                updated = (1 - learning_rate) * current + learning_rate * outcome_quality
                self.set(a, b, updated)


@dataclass(frozen=True)
class AffinityWeights:
    """Mixing weights for the initial, factor-based affinity.

    The three components mirror the paper's examples: language overlap
    (translation), geographic proximity (surveillance — same region ⇒
    larger affinity) and skill complementarity (diverse teams cover more of
    a task's skill needs).  Weights need not sum to one; the result is
    normalised.
    """

    language: float = 1.0
    region: float = 1.0
    skill_complementarity: float = 1.0
    geo_scale_km: float = 500.0
    #: Bound on incremental matrix extension: a newly registered worker is
    #: compared against at most this many of the most recently registered
    #: workers (``None`` = all of them, the exact quadratic construction;
    #: ``0`` disables factor-based initial affinity entirely).  Million-
    #: worker populations need a bound — the full pairwise extension is
    #: O(n²) over registrations — and team scoring degrades gracefully:
    #: unseen pairs fall back to the matrix default and learned
    #: reinforcement still applies.
    max_neighbors: int | None = None

    def __post_init__(self) -> None:
        if min(self.language, self.region, self.skill_complementarity) < 0:
            raise PlatformError("affinity weights must be non-negative")
        if self.language + self.region + self.skill_complementarity <= 0:
            raise PlatformError("at least one affinity weight must be positive")
        if self.max_neighbors is not None and self.max_neighbors < 0:
            raise PlatformError("max_neighbors must be None or >= 0")


def language_overlap(a: Worker, b: Worker) -> float:
    """Proficiency-weighted Jaccard overlap of the two language sets."""
    langs = set(a.factors.languages) | set(b.factors.languages)
    if not langs:
        return 0.0
    shared = 0.0
    for lang in sorted(langs):
        pa = a.factors.languages.get(lang, 0.0)
        pb = b.factors.languages.get(lang, 0.0)
        shared += min(pa, pb)
    return shared / len(langs)


def region_proximity(a: Worker, b: Worker, geo_scale_km: float = 500.0) -> float:
    """1.0 for the same region; otherwise exponential decay with great-circle
    distance when coordinates are known, else 0.0."""
    if a.factors.region and a.factors.region == b.factors.region:
        return 1.0
    if a.factors.coordinates and b.factors.coordinates:
        distance = _haversine_km(a.factors.coordinates, b.factors.coordinates)
        return math.exp(-distance / geo_scale_km)
    return 0.0


def skill_complementarity(a: Worker, b: Worker) -> float:
    """How much the pair's skill profiles complete each other.

    For every skill either worker has, take the pair's best level; average
    it, then discount by profile similarity so identical profiles score
    lower than complementary ones.
    """
    skills = set(a.factors.skills) | set(b.factors.skills)
    if not skills:
        return 0.0
    best_sum = 0.0
    overlap_sum = 0.0
    for skill in sorted(skills):
        la = a.factors.skill_level(skill)
        lb = b.factors.skill_level(skill)
        best_sum += max(la, lb)
        overlap_sum += min(la, lb)
    coverage = best_sum / len(skills)
    redundancy = overlap_sum / len(skills)
    return clamp(coverage - 0.5 * redundancy, 0.0, 1.0)


def affinity_from_factors(
    workers: Iterable[Worker], weights: AffinityWeights | None = None
) -> AffinityMatrix:
    """Build the initial affinity matrix from worker human factors."""
    weights = weights or AffinityWeights()
    total = weights.language + weights.region + weights.skill_complementarity
    matrix = AffinityMatrix()
    roster = sorted(workers, key=lambda w: w.id)
    for i, a in enumerate(roster):
        for b in roster[i + 1:]:
            score = (
                weights.language * language_overlap(a, b)
                + weights.region * region_proximity(a, b, weights.geo_scale_km)
                + weights.skill_complementarity * skill_complementarity(a, b)
            ) / total
            if score > 0.0:
                matrix.set(a.id, b.id, score)
    return matrix


def _haversine_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * 6371.0 * math.asin(math.sqrt(h))
