"""The replay-parity check every bit-identity suite shares.

Two :class:`~repro.harness.replay.InstanceReplay` objects are identical
when every per-query array matches exactly (NaN-aware on float columns)
and their ``stage_stats`` accounting is equal.
"""

import numpy as np

#: every per-query array an InstanceReplay carries
ARRAY_ATTRS = (
    "true",
    "arrival",
    "kind",
    "stage_pred",
    "stage_source",
    "autowlm_pred",
    "cache_pred",
    "local_pred",
    "local_std",
    "global_pred",
    "uncertain",
    "stage_interval_low",
    "stage_interval_high",
    "cache_interval_low",
    "cache_interval_high",
    "local_interval_low",
    "local_interval_high",
    "global_interval_low",
    "global_interval_high",
)


def assert_replays_identical(a, b):
    assert a.instance_id == b.instance_id
    for attr in ARRAY_ATTRS:
        x, y = getattr(a, attr), getattr(b, attr)
        assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), attr
    assert a.stage_stats == b.stage_stats
