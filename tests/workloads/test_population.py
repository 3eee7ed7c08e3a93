"""Tests for the shared skewed key population."""

import random

import pytest

from repro.workloads.population import KeyedPopulation, zipf_weights


class TestConstruction:
    def test_int_universe(self):
        pop = KeyedPopulation(5)
        assert pop.keys == [0, 1, 2, 3, 4]
        assert len(pop) == 5

    def test_explicit_universe_order_is_rank(self):
        pop = KeyedPopulation(["hot", "warm", "cold"], skew=1.0)
        assert pop.hot_keys(1) == ["hot"]
        assert pop.weights[0] > pop.weights[1] > pop.weights[2]

    def test_keys_property_is_a_copy(self):
        pop = KeyedPopulation(3)
        pop.keys.append(99)
        assert pop.keys == [0, 1, 2]

    def test_zero_skew_is_uniform(self):
        pop = KeyedPopulation(4, skew=0.0)
        assert pop.weights == pytest.approx([0.25] * 4)

    def test_weights_follow_zipf(self):
        pop = KeyedPopulation(10, skew=1.3)
        assert pop.weights == pytest.approx(zipf_weights(10, 1.3))

    def test_validation(self):
        with pytest.raises(ValueError):
            KeyedPopulation(0)
        with pytest.raises(ValueError):
            KeyedPopulation([])
        with pytest.raises(ValueError):
            KeyedPopulation(["a", "a"])
        with pytest.raises(ValueError):
            KeyedPopulation(3, skew=-0.1)
        with pytest.raises(ValueError):
            KeyedPopulation(3, rotate_every=-1.0)

    def test_repr(self):
        assert "n=3" in repr(KeyedPopulation(3, skew=1.5))


class TestRotation:
    def test_no_rotation_by_default(self):
        pop = KeyedPopulation(4, skew=1.0)
        assert pop.ranked(0.0) == pop.ranked(1e6)

    def test_rotates_one_rank_per_interval(self):
        pop = KeyedPopulation(["a", "b", "c"], rotate_every=1.0)
        assert pop.ranked(0.0) == ["a", "b", "c"]
        assert pop.ranked(1.0) == ["b", "c", "a"]
        assert pop.ranked(2.5) == ["c", "a", "b"]
        assert pop.ranked(3.0) == ["a", "b", "c"]  # full cycle

    def test_hot_keys_track_rotation(self):
        pop = KeyedPopulation(["a", "b", "c"], rotate_every=2.0)
        assert pop.hot_keys(2, at=0.0) == ["a", "b"]
        assert pop.hot_keys(2, at=2.0) == ["b", "c"]

    def test_weight_of_moves_with_the_key(self):
        pop = KeyedPopulation(["a", "b"], skew=1.0, rotate_every=1.0)
        hot, cold = pop.weights
        assert pop.weight_of("a", at=0.0) == hot
        assert pop.weight_of("a", at=1.0) == cold


class TestSampling:
    def test_deterministic_given_seed(self):
        pop = KeyedPopulation(20, skew=1.2)
        draws_a = [pop.sample(random.Random(9)) for _ in range(1)]
        rng_a, rng_b = random.Random(9), random.Random(9)
        a = [pop.sample(rng_a) for _ in range(200)]
        b = [pop.sample(rng_b) for _ in range(200)]
        assert a == b
        assert draws_a[0] == a[0]

    def test_matches_historical_choices_idiom(self):
        # Refactored generators must reproduce their old streams byte
        # for byte, so sample() has to consume the exact RNG state that
        # rng.choices(keys, weights) did.
        pop = KeyedPopulation(12, skew=1.1)
        rng_new, rng_old = random.Random(4), random.Random(4)
        new = [pop.sample(rng_new) for _ in range(300)]
        old = [
            rng_old.choices(list(range(12)), weights=pop.weights, k=1)[0]
            for _ in range(300)
        ]
        assert new == old

    def test_cumulative_table_matches_choices_over_the_ranked_list(self):
        # The reference is the definition: weighted choices over the
        # keys in rank order at time ``at``.  Same draws and same final
        # RNG state, under rotation and churn, for both sampling styles.
        shapes = [
            dict(keys=1),
            dict(keys=7, skew=0.0),
            dict(keys=40, skew=1.3, rotate_every=0.5),
            dict(keys=list("abcdefghij"), skew=0.7, rotate_every=0.003),
        ]
        for shape in shapes:
            pop = KeyedPopulation(**shape)
            rng_new, rng_ref = random.Random(11), random.Random(11)
            for step in range(400):
                at = step * 0.0137
                if step % 100 == 99:
                    pop.churn(rng_new, ("new", step))
                    rng_ref.randrange(len(pop))
                k = 1 + step % 3
                ref = rng_ref.choices(pop.ranked(at), weights=pop.weights, k=k)
                if k == 1:
                    assert [pop.sample(rng_new, at)] == ref, (shape, step)
                else:
                    assert pop.sample_many(rng_new, k, at) == ref, (shape, step)
            assert rng_new.getstate() == rng_ref.getstate(), shape

    def test_skew_concentrates_mass_on_hot_keys(self):
        pop = KeyedPopulation(50, skew=1.5)
        rng = random.Random(1)
        draws = pop.sample_many(rng, 3000)
        hot = sum(1 for d in draws if d in pop.hot_keys(5))
        assert hot / len(draws) > 0.5

    def test_sample_many_matches_law(self):
        pop = KeyedPopulation(4, skew=0.0)
        draws = pop.sample_many(random.Random(2), 4000)
        for key in range(4):
            assert draws.count(key) / 4000 == pytest.approx(0.25, abs=0.05)

    def test_rotation_moves_sampled_hot_set(self):
        pop = KeyedPopulation(10, skew=2.0, rotate_every=1.0)
        early = pop.sample_many(random.Random(3), 500, at=0.0)
        late = pop.sample_many(random.Random(3), 500, at=5.0)
        assert max(set(early), key=early.count) != max(set(late), key=late.count)


class TestChurn:
    def test_replace_inherits_rank(self):
        pop = KeyedPopulation(["a", "b", "c"], skew=1.0)
        pop.replace("b", "z")
        assert pop.keys == ["a", "z", "c"]
        assert pop.weight_of("z") == pop.weights[1]
        assert pop.replacements == 1

    def test_replace_rejects_existing_member(self):
        pop = KeyedPopulation(["a", "b"])
        with pytest.raises(ValueError):
            pop.replace("a", "b")

    def test_replace_unknown_key_raises(self):
        pop = KeyedPopulation(["a", "b"])
        with pytest.raises(ValueError):
            pop.replace("missing", "z")

    def test_churn_is_deterministic(self):
        retired = []
        for _ in range(2):
            pop = KeyedPopulation(10, skew=1.0)
            rng = random.Random(6)
            retired.append([pop.churn(rng, 100 + i) for i in range(5)])
        assert retired[0] == retired[1]
        assert len(retired[0]) == 5

    def test_churn_preserves_size_and_law(self):
        pop = KeyedPopulation(8, skew=1.2)
        weights_before = list(pop.weights)
        rng = random.Random(0)
        for i in range(20):
            pop.churn(rng, 1000 + i)
        assert len(pop) == 8
        assert pop.weights == weights_before
        assert pop.replacements == 20
