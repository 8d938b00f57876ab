"""Affinity matrix and its builders."""

import itertools
import math

import pytest

from repro.core.affinity import (
    AffinityMatrix,
    AffinityWeights,
    affinity_from_factors,
    language_overlap,
    region_proximity,
    skill_complementarity,
)
from repro.errors import PlatformError
from tests.conftest import make_worker


class TestMatrix:
    def test_symmetry(self):
        matrix = AffinityMatrix()
        matrix.set("a", "b", 0.7)
        assert matrix.get("b", "a") == 0.7

    def test_default_value(self):
        assert AffinityMatrix(default=0.2).get("x", "y") == 0.2

    def test_self_affinity_zero(self):
        assert AffinityMatrix(default=0.5).get("a", "a") == 0.0

    def test_self_pair_set_rejected(self):
        with pytest.raises(PlatformError):
            AffinityMatrix().set("a", "a", 1.0)

    def test_values_clamped(self):
        matrix = AffinityMatrix()
        matrix.set("a", "b", 7.0)
        assert matrix.get("a", "b") == 1.0

    def test_default_clamped_into_unit_interval(self):
        assert AffinityMatrix(default=7.0).default == 1.0
        assert AffinityMatrix(default=-3.0).default == 0.0
        assert AffinityMatrix(default=9.0).get("x", "y") == 1.0

    def test_negative_set_value_clamped_to_zero(self):
        matrix = AffinityMatrix(default=0.4)
        matrix.set("a", "b", -2.5)
        assert matrix.get("a", "b") == 0.0  # stored, not falling back to default

    def test_pair_normalises_order(self):
        from repro.core.affinity import _pair

        assert _pair("b", "a") == ("a", "b")
        assert _pair("a", "b") == ("a", "b")

    def test_pair_rejects_identical_workers_with_message(self):
        from repro.core.affinity import _pair

        with pytest.raises(PlatformError, match="distinct workers"):
            _pair("w", "w")

    def test_duplicate_team_member_semantics(self):
        # Read paths treat a duplicated member as a zero-affinity self pair…
        matrix = AffinityMatrix(default=0.5)
        assert matrix.intra_affinity(["a", "a"]) == 0.0
        # …but write paths reject it via _pair.
        with pytest.raises(PlatformError, match="distinct workers"):
            matrix.reinforce(["a", "a"], 1.0)

    def test_intra_affinity_sum_of_pairs(self):
        matrix = AffinityMatrix()
        matrix.set("a", "b", 0.5)
        matrix.set("b", "c", 0.3)
        matrix.set("a", "c", 0.1)
        assert matrix.intra_affinity(["a", "b", "c"]) == pytest.approx(0.9)
        assert matrix.intra_affinity(["a"]) == 0.0

    def test_intra_affinity_independent_of_member_order(self):
        """The team score must not depend on member order (which follows
        set/dict iteration, i.e. the hash seed): float addition is not
        associative, so (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)."""
        matrix = AffinityMatrix()
        matrix.set("a", "b", 0.1)
        matrix.set("a", "c", 0.2)
        matrix.set("b", "c", 0.3)
        scores = {
            matrix.intra_affinity(team)
            for team in itertools.permutations(("a", "b", "c"))
        }
        assert scores == {math.fsum((0.1, 0.2, 0.3))}

    def test_density(self):
        matrix = AffinityMatrix()
        matrix.set("a", "b", 0.6)
        matrix.set("b", "c", 0.0)
        matrix.set("a", "c", 0.0)
        assert matrix.density(["a", "b", "c"]) == pytest.approx(0.2)
        assert matrix.density(["a"]) == 0.0

    def test_min_pair(self):
        matrix = AffinityMatrix()
        matrix.set("a", "b", 0.6)
        assert matrix.min_pair(["a", "b", "c"]) == 0.0
        assert matrix.min_pair(["a"]) == 1.0

    def test_marginal_gain(self):
        matrix = AffinityMatrix()
        matrix.set("a", "c", 0.4)
        matrix.set("b", "c", 0.2)
        assert matrix.marginal_gain(["a", "b"], "c") == pytest.approx(0.6)

    def test_reinforce_moves_towards_quality(self):
        matrix = AffinityMatrix()
        matrix.set("a", "b", 0.5)
        matrix.reinforce(["a", "b"], 1.0, learning_rate=0.5)
        assert matrix.get("a", "b") == pytest.approx(0.75)
        matrix.reinforce(["a", "b"], 0.0, learning_rate=0.5)
        assert matrix.get("a", "b") == pytest.approx(0.375)

    def test_reinforce_creates_pairs_from_default(self):
        matrix = AffinityMatrix()
        matrix.reinforce(["a", "b", "c"], 1.0, learning_rate=0.2)
        assert matrix.get("a", "c") == pytest.approx(0.2)
        assert len(matrix) == 3


class TestComponents:
    def test_language_overlap_weighted_jaccard(self):
        a = make_worker("a", languages={"fr": 0.6})   # en native too
        b = make_worker("b", languages={"fr": 0.8})
        # shared: en min(1,1)=1, fr min(.6,.8)=.6 over union {en, fr}
        assert language_overlap(a, b) == pytest.approx((1.0 + 0.6) / 2)

    def test_language_overlap_empty(self):
        from repro.core.human_factors import HumanFactors
        from repro.core.workers import Worker

        a = Worker("a", "a", HumanFactors())
        b = Worker("b", "b", HumanFactors())
        assert language_overlap(a, b) == 0.0

    def test_region_proximity_same_region(self):
        a = make_worker("a", region="paris")
        b = make_worker("b", region="paris")
        assert region_proximity(a, b) == 1.0

    def test_region_proximity_distance_decay(self):
        from dataclasses import replace

        a = make_worker("a", region="x")
        b = make_worker("b", region="y")
        a = a.with_factors(replace(a.factors, coordinates=(35.0, 139.0)))
        b = b.with_factors(replace(b.factors, coordinates=(35.0, 139.5)))
        near = region_proximity(a, b)
        b_far = b.with_factors(replace(b.factors, coordinates=(48.0, 2.0)))
        far = region_proximity(a, b_far)
        assert 0 < far < near < 1

    def test_region_proximity_unknown(self):
        a = make_worker("a", region="x")
        b = make_worker("b", region="y")
        assert region_proximity(a, b) == 0.0

    def test_skill_complementarity_prefers_complements(self):
        specialist_a = make_worker("a", skill=0.9, skill_name="writing")
        specialist_b = make_worker("b", skill=0.9, skill_name="editing")
        twin_a = make_worker("c", skill=0.9, skill_name="writing")
        twin_b = make_worker("d", skill=0.9, skill_name="writing")
        assert skill_complementarity(specialist_a, specialist_b) > \
            skill_complementarity(twin_a, twin_b)


class TestBuilder:
    def test_same_region_pairs_scored_higher(self, five_workers):
        matrix = affinity_from_factors(five_workers)
        same = matrix.get("w1", "w2")      # both tsukuba
        cross = matrix.get("w1", "w5")     # tsukuba vs dallas
        assert same > cross

    def test_weights_validated(self):
        with pytest.raises(PlatformError):
            AffinityWeights(language=-1)
        with pytest.raises(PlatformError):
            AffinityWeights(language=0, region=0, skill_complementarity=0)

    def test_zero_weight_disables_component(self, five_workers):
        matrix = affinity_from_factors(
            five_workers,
            AffinityWeights(language=0, region=1, skill_complementarity=0),
        )
        assert matrix.get("w1", "w2") == 1.0   # same region only
        assert matrix.get("w1", "w3") == 0.0

    def test_pairs_iteration_sorted(self, five_workers):
        matrix = affinity_from_factors(five_workers)
        pairs = list(matrix.pairs())
        assert pairs == sorted(pairs)
