"""Error-path coverage for :class:`repro.service.ModelRegistry`.

Every load failure must be self-describing: a missing artifact raises
``FileNotFoundError`` naming the snapshot and listing what the registry
actually holds, and corrupt/truncated on-disk state raises ``ValueError``
— never a bare internal-path ``FileNotFoundError`` or a raw pickle
traceback.  The one snapshot format serves every tier, so the same
errors surface through :meth:`PredictionService.restore`.
"""

import os

import numpy as np
import pytest

from repro.core.config import fast_profile
from repro.core.stage import StagePredictor
from repro.global_model.featurization import SYS_FEATURE_DIM
from repro.global_model.model import GlobalModel
from repro.ml.gcn import DirectedGCN
from repro.ml.preprocessing import StandardScaler
from repro.plans.graph import NODE_FEATURE_DIM
from repro.service import ModelRegistry, PredictionService
from repro.service.registry import decode_state, encode_state
from repro.workload import FleetConfig, FleetGenerator


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(str(tmp_path / "registry"))


@pytest.fixture(scope="module")
def instance():
    gen = FleetGenerator(FleetConfig(seed=5, volume_scale=0.1))
    return gen.sample_instance(0)


def _tiny_global_model() -> GlobalModel:
    """A structurally valid (untrained) global model — enough to serialize."""
    gcn = DirectedGCN(
        n_node_features=NODE_FEATURE_DIM,
        n_sys_features=SYS_FEATURE_DIM,
        hidden_dim=8,
        n_conv_layers=2,
        dropout=0.0,
        random_state=0,
    )
    node_scaler = StandardScaler()
    node_scaler.mean_ = np.zeros(NODE_FEATURE_DIM)
    node_scaler.scale_ = np.ones(NODE_FEATURE_DIM)
    sys_scaler = StandardScaler()
    sys_scaler.mean_ = np.zeros(SYS_FEATURE_DIM)
    sys_scaler.scale_ = np.ones(SYS_FEATURE_DIM)
    return GlobalModel(gcn, node_scaler, sys_scaler, residual_variance=0.25)


def _save_snapshot(registry, stage, name, global_model=None):
    """A one-instance snapshot, written the way every tier writes one."""
    return registry.save(
        name, {stage.instance.instance_id: encode_state(stage)}, 1, global_model=global_model
    )


def _state_path(registry, name, instance_id):
    """Where a snapshot keeps one member's state bytes on disk."""
    return os.path.join(registry.snapshot_path(name), "instances", instance_id, "state.pkl")


def _snapshot_service(registry, stage, name):
    service = PredictionService.from_stage(stage)
    try:
        return service.snapshot(registry, name)
    finally:
        service.close()


class TestMissingArtifacts:
    def test_missing_service_snapshot_names_it(self, registry):
        with pytest.raises(FileNotFoundError, match="no snapshot named 'nope'"):
            PredictionService.restore(registry, "nope")

    def test_missing_snapshot_lists_available(self, registry, instance):
        _save_snapshot(registry, StagePredictor(instance, config=fast_profile()), "existing")
        with pytest.raises(FileNotFoundError, match="'existing'"):
            registry.load_manifest("nope")

    def test_missing_global_model(self, registry, instance):
        stage = StagePredictor(instance, config=fast_profile())
        path = _save_snapshot(registry, stage, "snap", global_model=_tiny_global_model())
        os.remove(os.path.join(path, "global.npz"))
        with pytest.raises(FileNotFoundError, match="no snapshot global model named 'snap'"):
            PredictionService.restore(registry, "snap")

    def test_missing_fleet_snapshot(self, registry):
        with pytest.raises(FileNotFoundError, match="no snapshot named 'ghost'"):
            registry.load_manifest("ghost")

    def test_missing_fleet_member_lists_available(self, registry, instance):
        _save_snapshot(registry, StagePredictor(instance, config=fast_profile()), "fleet-a")
        with pytest.raises(FileNotFoundError) as excinfo:
            registry.load_state("fleet-a", "no-such-instance")
        assert instance.instance_id in str(excinfo.value)

    def test_missing_fleet_global(self, registry):
        with pytest.raises(FileNotFoundError, match="snapshot global model"):
            registry.load_global("ghost")


class TestCorruptArtifacts:
    def test_truncated_state_pickle(self, registry, instance):
        stage = StagePredictor(instance, config=fast_profile())
        _snapshot_service(registry, stage, "snap")
        state_path = _state_path(registry, "snap", instance.instance_id)
        data = open(state_path, "rb").read()
        with open(state_path, "wb") as f:
            f.write(data[: len(data) // 2])
        with pytest.raises(ValueError, match="snapshot member 'snap/.*' is corrupt or truncated"):
            PredictionService.restore(registry, "snap")

    def test_truncated_global_npz(self, registry, instance):
        stage = StagePredictor(instance, config=fast_profile())
        path = _save_snapshot(registry, stage, "tiny", global_model=_tiny_global_model())
        global_path = os.path.join(path, "global.npz")
        data = open(global_path, "rb").read()
        with open(global_path, "wb") as f:
            f.write(data[: len(data) // 2])
        with pytest.raises(ValueError, match="corrupt or truncated"):
            registry.load_global("tiny")

    def test_garbage_state_pickle(self, registry, instance):
        stage = StagePredictor(instance, config=fast_profile())
        _snapshot_service(registry, stage, "snap")
        state_path = _state_path(registry, "snap", instance.instance_id)
        with open(state_path, "wb") as f:
            f.write(b"this is not a pickle")
        with pytest.raises(ValueError, match="corrupt or truncated"):
            PredictionService.restore(registry, "snap")

    def test_corrupt_fleet_manifest_json(self, registry, instance):
        path = _save_snapshot(registry, StagePredictor(instance, config=fast_profile()), "fleet-b")
        with open(os.path.join(path, "manifest.json"), "w") as f:
            f.write("{ not json")
        with pytest.raises(ValueError, match="corrupt manifest"):
            registry.load_manifest("fleet-b")

    def test_truncated_fleet_member_pickle(self, registry, instance):
        stage = StagePredictor(instance, config=fast_profile())
        _save_snapshot(registry, stage, "fleet-c")
        state_path = _state_path(registry, "fleet-c", instance.instance_id)
        data = open(state_path, "rb").read()
        with open(state_path, "wb") as f:
            f.write(data[: len(data) // 2])
        with pytest.raises(ValueError, match="corrupt or truncated"):
            decode_state(registry.load_state("fleet-c", instance.instance_id))


class TestHappyPathStillWorks:
    def test_global_model_roundtrip_keeps_residual_variance(self, registry, instance):
        stage = StagePredictor(instance, config=fast_profile())
        _save_snapshot(registry, stage, "tiny", global_model=_tiny_global_model())
        assert registry.load_manifest("tiny")["has_global_model"]
        assert registry.load_global("tiny").residual_variance == 0.25

    def test_service_state_roundtrip_keeps_width_bins(self, registry, instance):
        stage = StagePredictor(instance, config=fast_profile())
        stage.interval_width_bins[3] = 7
        _snapshot_service(registry, stage, "snap")
        restored = PredictionService.restore(registry, "snap")
        restored.close()
        assert restored.stage.interval_width_bins == stage.interval_width_bins


# ---------------------------------------------------------------------------
# per-instance state bytes (fleet-member files and the migration handoff)
# ---------------------------------------------------------------------------
def _replay_segment(stage, trace, start, stop):
    """Fused predict+observe over ``trace[start:stop)``; returns the
    predictions (observes included so post-restore retrains fire too)."""
    predictions = []
    for i in range(start, stop):
        predictions.append(stage.predict(trace[i]).exec_time)
        stage.observe(trace[i])
    return np.array(predictions)


def _instance_trace():
    """A 209-query trace whose first half trains the local ensemble, so
    the state bytes carry a fitted ensemble that answers after the cut."""
    gen = FleetGenerator(FleetConfig(seed=5, volume_scale=0.5))
    instance = gen.sample_instance(2)
    return instance, gen.generate_trace(instance, 0.5)


def _warm_stage():
    """A stage replayed through the first half of :func:`_instance_trace`."""
    instance, trace = _instance_trace()
    n_warm = len(trace) // 2
    stage = StagePredictor(instance, config=fast_profile(), random_state=0)
    _replay_segment(stage, trace, 0, n_warm)
    assert stage.local.is_ready
    return stage, trace, n_warm


def _sources(stage, trace, start, stop):
    """The source of each prediction over ``trace[start:stop)`` (fused)."""
    sources = []
    for i in range(start, stop):
        sources.append(str(stage.predict(trace[i]).source))
        stage.observe(trace[i])
    return sources


def _decode_state_and_predict(args):
    """Spawn-able worker: decode one instance's state bytes cold and
    serve the held-out segment — no registry, no warm process state."""
    import pickle as _pickle

    data, n_warm = args
    _, trace = _instance_trace()
    stage = decode_state(data)
    return _pickle.dumps(_replay_segment(stage, trace, n_warm, len(trace)))


class TestInstanceStates:
    def test_roundtrip_is_bit_identical(self):
        """Encoding one instance mid-stream and decoding it continues the
        stream bit-for-bit — the property live migration rests on.  The
        cut falls after the local ensemble trained, so a packed forest
        crosses it and answers after it."""
        stage, trace, n_warm = _warm_stage()
        data = encode_state(stage)
        assert "local" in _sources(decode_state(data), trace, n_warm, len(trace))

        want = _replay_segment(stage, trace, n_warm, len(trace))
        got = _replay_segment(decode_state(data), trace, n_warm, len(trace))
        assert np.array_equal(got, want)

    def test_fresh_spawn_process_restore(self):
        """The state bytes survive a cold process boundary (spawn: no
        inherited memory), exactly as a target shard receives them."""
        import multiprocessing
        import pickle
        from concurrent.futures import ProcessPoolExecutor

        stage, trace, n_warm = _warm_stage()
        data = encode_state(stage)
        assert "local" in _sources(decode_state(data), trace, n_warm, len(trace))
        want = _replay_segment(stage, trace, n_warm, len(trace))

        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            payload = pool.submit(_decode_state_and_predict, (data, n_warm)).result(timeout=300)
        assert np.array_equal(pickle.loads(payload), want)

    def test_version_1_state_is_refused(self, monkeypatch):
        """Version 1 states pickled each fitted GBM as tree objects; a
        version-2 decoder refuses them rather than decode a model that
        has no packed forest."""
        import repro.service.registry as registry_module

        stage, _, _ = _warm_stage()
        monkeypatch.setattr(registry_module, "_FORMAT_VERSION", 1)
        data = encode_state(stage)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="unsupported format version 1"):
            decode_state(data)

    def test_truncated_bytes_name_the_artifact(self, instance):
        data = encode_state(StagePredictor(instance, config=fast_profile()))
        with pytest.raises(ValueError, match="migration state of 'x' is corrupt or truncated"):
            decode_state(data[: len(data) // 2], artifact="migration state of 'x'")

    def test_fleet_member_file_holds_the_state_bytes(self, registry, instance):
        stage = StagePredictor(instance, config=fast_profile())
        _save_snapshot(registry, stage, "fleet-d")
        with open(_state_path(registry, "fleet-d", instance.instance_id), "rb") as f:
            assert f.read() == encode_state(stage)
        assert registry.load_state("fleet-d", instance.instance_id) == encode_state(stage)
        assert registry.list_snapshots() == ["fleet-d"]


# ---------------------------------------------------------------------------
# a snapshot is whole or absent
# ---------------------------------------------------------------------------
class TestWholeOrAbsent:
    def test_resnapshot_keeps_only_the_listed_members(self, registry):
        gen = FleetGenerator(FleetConfig(seed=5, volume_scale=0.1))
        stages = [StagePredictor(gen.sample_instance(i), config=fast_profile()) for i in (0, 1)]
        kept, dropped = (stage.instance.instance_id for stage in stages)
        registry.save("snap", {s.instance.instance_id: encode_state(s) for s in stages}, 2)

        path = _snapshot_service(registry, stages[0], "snap")
        assert registry.load_manifest("snap")["instances"] == [kept]
        assert os.listdir(os.path.join(path, "instances")) == [kept]
        with pytest.raises(FileNotFoundError, match=f"'snap/{dropped}'"):
            registry.load_state("snap", dropped)
        assert registry.list_snapshots() == ["snap"]

    def test_failed_save_leaves_the_previous_snapshot_whole(self, registry, monkeypatch):
        import repro.service.registry as registry_module

        stage, trace, n_warm = _warm_stage()
        _snapshot_service(registry, stage, "snap")
        before = registry.load_state("snap", stage.instance.instance_id)
        want = _replay_segment(decode_state(before), trace, n_warm, len(trace))

        # the next epoch: more ops applied, a global model attached, and
        # the global-model write fails after the member was written
        _replay_segment(stage, trace, n_warm, n_warm + 20)
        stage.global_model = _tiny_global_model()

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(registry_module, "save_global_model", fail)
        with pytest.raises(OSError, match="disk full"):
            _snapshot_service(registry, stage, "snap")

        assert registry.list_snapshots() == ["snap"]
        assert os.listdir(registry.root) == ["snap"]  # the staging directory is gone
        assert registry.load_state("snap", stage.instance.instance_id) == before
        assert not registry.load_manifest("snap")["has_global_model"]
        restored = PredictionService.restore(registry, "snap")
        restored.close()
        assert np.array_equal(_replay_segment(restored.stage, trace, n_warm, len(trace)), want)
