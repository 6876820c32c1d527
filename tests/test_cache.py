"""Tests for the exec-time cache and Welford running stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ExecTimeCache, RunningStats


class TestRunningStats:
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy(self, values):
        stats = RunningStats()
        for v in values:
            stats.update(v)
        assert stats.count == len(values)
        assert stats.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        assert stats.variance == pytest.approx(np.var(values), rel=1e-9, abs=1e-6)
        assert stats.last == values[-1]

    def test_single_value_zero_variance(self):
        stats = RunningStats().update(5.0)
        assert stats.variance == 0.0
        assert stats.sample_variance == 0.0

    def test_sample_variance_unbiased(self):
        stats = RunningStats()
        for v in (1.0, 2.0, 3.0):
            stats.update(v)
        assert stats.sample_variance == pytest.approx(1.0)

    def test_repr_contains_fields(self):
        assert "mean" in repr(RunningStats().update(1.0))


class TestExecTimeCacheBasics:
    def test_miss_returns_none(self):
        cache = ExecTimeCache(capacity=10)
        assert cache.lookup("nope") is None
        assert cache.misses == 1

    def test_hit_after_observe(self):
        cache = ExecTimeCache(capacity=10)
        cache.observe("q1", 2.0)
        assert cache.lookup("q1") == pytest.approx(2.0)
        assert cache.hits == 1

    def test_alpha_blend(self):
        """prediction = alpha * mean + (1 - alpha) * last (paper 4.2)."""
        cache = ExecTimeCache(capacity=10, alpha=0.8)
        for t in (1.0, 2.0, 6.0):
            cache.observe("q", t)
        expected = 0.8 * 3.0 + 0.2 * 6.0
        assert cache.lookup("q") == pytest.approx(expected)

    def test_alpha_zero_is_last_only(self):
        cache = ExecTimeCache(capacity=10, alpha=0.0)
        cache.observe("q", 1.0)
        cache.observe("q", 9.0)
        assert cache.lookup("q") == pytest.approx(9.0)

    def test_alpha_one_is_mean_only(self):
        cache = ExecTimeCache(capacity=10, alpha=1.0)
        cache.observe("q", 1.0)
        cache.observe("q", 9.0)
        assert cache.lookup("q") == pytest.approx(5.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ExecTimeCache(capacity=0)
        with pytest.raises(ValueError):
            ExecTimeCache(alpha=1.5)
        with pytest.raises(ValueError):
            ExecTimeCache().observe("q", -1.0)

    def test_vector_roundtrip(self):
        cache = ExecTimeCache(capacity=10)
        vec = np.arange(33, dtype=float)
        cache.observe(cache.key_for(vec), 3.0)
        assert cache.lookup(cache.key_for(vec.copy())) == pytest.approx(3.0)


class TestEviction:
    def test_capacity_never_exceeded(self):
        cache = ExecTimeCache(capacity=5)
        for i in range(50):
            cache.observe(f"q{i}", float(i))
            assert len(cache) <= 5

    def test_least_recently_updated_evicted(self):
        cache = ExecTimeCache(capacity=2)
        cache.observe("a", 1.0)
        cache.observe("b", 2.0)
        cache.observe("a", 1.5)  # refresh a; b is now oldest
        cache.observe("c", 3.0)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_lookup_does_not_refresh(self):
        """Eviction is least-recently-*updated*: reads don't protect."""
        cache = ExecTimeCache(capacity=2)
        cache.observe("a", 1.0)
        cache.observe("b", 2.0)
        cache.lookup("a")  # read but not updated
        cache.observe("c", 3.0)  # evicts a despite the read
        assert "a" not in cache and "b" in cache and "c" in cache

    def test_eviction_counter(self):
        cache = ExecTimeCache(capacity=1)
        cache.observe("a", 1.0)
        cache.observe("b", 1.0)
        assert cache.evictions == 1

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_capacity_invariant_under_any_sequence(self, keys):
        cache = ExecTimeCache(capacity=7)
        for k in keys:
            cache.observe(f"q{k}", float(k))
        assert len(cache) <= 7
        # entries seen most recently must be present
        recent_distinct = []
        for k in reversed(keys):
            if f"q{k}" not in recent_distinct:
                recent_distinct.append(f"q{k}")
            if len(recent_distinct) == min(7, len(set(keys))):
                break
        for key in recent_distinct:
            assert key in cache


class TestEWMAMode:
    """The time-series-style prediction mode (paper 4.2 future work)."""

    def test_single_observation_is_identity(self):
        cache = ExecTimeCache(capacity=4, mode="ewma")
        cache.observe("q", 7.0)
        assert cache.lookup("q") == pytest.approx(7.0)

    def test_ewma_weights_recent_history(self):
        cache = ExecTimeCache(capacity=4, mode="ewma", ewma_decay=0.5)
        for t in (1.0, 1.0, 9.0):
            cache.observe("q", t)
        # ewma: 1 -> 1 -> 0.5*1 + 0.5*9 = 5
        assert cache.lookup("q") == pytest.approx(5.0)

    def test_ewma_tracks_drift_better_than_mean(self):
        """Under a level shift, EWMA converges to the new level while the
        plain mean lags — the motivation for the future-work idea."""
        blend = ExecTimeCache(capacity=4, alpha=1.0)  # mean-only
        ewma = ExecTimeCache(capacity=4, mode="ewma", ewma_decay=0.4)
        history = [1.0] * 20 + [10.0] * 5
        for t in history:
            blend.observe("q", t)
            ewma.observe("q", t)
        assert abs(ewma.lookup("q") - 10.0) < abs(blend.lookup("q") - 10.0)

    def test_invalid_mode_and_decay(self):
        with pytest.raises(ValueError, match="mode"):
            ExecTimeCache(mode="arima")
        with pytest.raises(ValueError, match="ewma_decay"):
            ExecTimeCache(mode="ewma", ewma_decay=0.0)

    def test_running_stats_expose_ewma(self):
        from repro.cache import RunningStats

        stats = RunningStats()
        stats.update(2.0, ewma_decay=0.5)
        stats.update(4.0, ewma_decay=0.5)
        assert stats.ewma == pytest.approx(3.0)


class TestPeek:
    def test_peek_matches_lookup_value(self):
        cache = ExecTimeCache(capacity=4, alpha=0.8)
        cache.observe("a", 1.0)
        cache.observe("a", 3.0)
        assert cache.peek("a") == pytest.approx(cache.lookup("a"))

    def test_peek_does_not_touch_counters(self):
        cache = ExecTimeCache(capacity=4)
        cache.observe("a", 1.0)
        assert cache.peek("a") is not None
        assert cache.peek("missing") is None
        assert cache.hits == 0 and cache.misses == 0
        assert cache.hit_rate == 0.0

    def test_peek_does_not_change_eviction_order(self):
        cache = ExecTimeCache(capacity=2)
        cache.observe("a", 1.0)
        cache.observe("b", 2.0)
        cache.peek("a")  # must NOT refresh "a"
        cache.observe("c", 3.0)  # evicts least-recently-updated: "a"
        assert "a" not in cache and "b" in cache and "c" in cache

    def test_peek_respects_ewma_mode(self):
        cache = ExecTimeCache(capacity=4, mode="ewma", ewma_decay=0.5)
        cache.observe("a", 2.0)
        cache.observe("a", 4.0)
        assert cache.peek("a") == pytest.approx(3.0)


class TestCacheAccounting:
    def test_hit_rate(self):
        cache = ExecTimeCache(capacity=4)
        cache.observe("a", 1.0)
        cache.lookup("a")
        cache.lookup("zz")
        assert cache.hit_rate == pytest.approx(0.5)

    def test_byte_size_grows(self):
        cache = ExecTimeCache(capacity=100)
        before = cache.byte_size()
        cache.observe("a", 1.0)
        assert cache.byte_size() > before

    def test_clear_resets(self):
        cache = ExecTimeCache(capacity=4)
        cache.observe("a", 1.0)
        cache.lookup("a")
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.hit_rate == 0.0


class TestArchiveAndPrewarm:
    """The evicted-entry archive behind forecast pre-warming.

    ``archive_capacity > 0`` keeps evicted entries (stats + precomputed
    prediction) on the side; ``restore`` revives one at MRU position and
    ``touch`` refreshes a resident's recency — the two pre-warm verbs.
    Neither touches the hit/miss counters, so pre-warming is invisible
    in lookup accounting.
    """

    def test_default_drops_evictions(self):
        cache = ExecTimeCache(capacity=1)
        cache.observe("a", 1.0)
        cache.observe("b", 2.0)
        assert not cache.restore("a")

    def test_restore_revives_evicted_entry(self):
        cache = ExecTimeCache(capacity=1, alpha=1.0, archive_capacity=4)
        cache.observe("a", 1.0)
        cache.observe("a", 3.0)
        cache.observe("b", 2.0)  # evicts a into the archive
        assert "a" not in cache
        assert cache.restore("a")
        assert cache.restores == 1
        assert "a" in cache and "b" not in cache  # restore evicted b
        # the restored entry kept its full stats (mean of 1.0, 3.0)
        assert cache.peek("a") == pytest.approx(2.0)

    def test_restore_noop_when_resident_or_unknown(self):
        cache = ExecTimeCache(capacity=2, archive_capacity=4)
        cache.observe("a", 1.0)
        assert not cache.restore("a")  # already resident
        assert not cache.restore("zz")  # never seen
        assert cache.restores == 0

    def test_archive_capacity_bounded(self):
        cache = ExecTimeCache(capacity=1, archive_capacity=2)
        for i in range(6):
            cache.observe(f"q{i}", float(i))
        # only the two most recently evicted survive (q3, q4)
        assert not cache.restore("q0")
        assert cache.restore("q3")

    def test_fresh_observation_supersedes_archive(self):
        cache = ExecTimeCache(capacity=1, archive_capacity=4)
        cache.observe("a", 10.0)
        cache.observe("b", 2.0)  # archives a with mean 10
        cache.observe("a", 4.0)  # fresh stream: archived copy dropped
        cache.observe("b", 2.0)
        assert cache.restore("a")
        assert cache.peek("a") == pytest.approx(4.0)  # not 10.0 or 7.0

    def test_touch_protects_recency(self):
        cache = ExecTimeCache(capacity=2)
        cache.observe("a", 1.0)
        cache.observe("b", 2.0)
        assert cache.touch("a")  # a is now most recent
        cache.observe("c", 3.0)  # evicts b, not a
        assert "a" in cache and "b" not in cache

    def test_touch_misses_return_false(self):
        cache = ExecTimeCache(capacity=2)
        assert not cache.touch("zz")

    def test_prewarm_verbs_leave_counters_alone(self):
        cache = ExecTimeCache(capacity=1, archive_capacity=4)
        cache.observe("a", 1.0)
        cache.observe("b", 2.0)
        cache.touch("b")
        cache.restore("a")
        assert cache.hits == 0 and cache.misses == 0

    def test_byte_size_counts_archive(self):
        dropping = ExecTimeCache(capacity=1)
        keeping = ExecTimeCache(capacity=1, archive_capacity=8)
        for cache in (dropping, keeping):
            for i in range(5):
                cache.observe(f"q{i}", float(i))
        assert keeping.byte_size() > dropping.byte_size()

    def test_clear_drops_archive(self):
        cache = ExecTimeCache(capacity=1, archive_capacity=4)
        cache.observe("a", 1.0)
        cache.observe("b", 2.0)
        cache.restore("a")
        cache.clear()
        assert cache.restores == 0
        assert not cache.restore("a")

    def test_invalid_archive_capacity(self):
        with pytest.raises(ValueError):
            ExecTimeCache(capacity=4, archive_capacity=-1)
