"""Error-path coverage for :class:`repro.service.ModelRegistry`.

Every load failure must be self-describing: a missing artifact raises
``FileNotFoundError`` naming the snapshot and listing what the registry
actually holds, and corrupt/truncated on-disk state raises ``ValueError``
— never a bare internal-path ``FileNotFoundError`` or a raw pickle
traceback.
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
from repro.service import ModelRegistry
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


class TestMissingArtifacts:
    def test_missing_service_snapshot_names_it(self, registry):
        with pytest.raises(FileNotFoundError, match="no service snapshot named 'nope'"):
            registry.load_service_state("nope")

    def test_missing_snapshot_lists_available(self, registry, instance):
        stage = StagePredictor(instance, config=fast_profile())
        registry.save_service_state(stage, "existing")
        with pytest.raises(FileNotFoundError, match="'existing'"):
            registry.load_service_state("nope")

    def test_missing_global_model(self, registry):
        with pytest.raises(FileNotFoundError, match="no global model named 'ghost'"):
            registry.load_global_model("ghost")

    def test_missing_fleet_snapshot(self, registry):
        with pytest.raises(FileNotFoundError, match="no fleet snapshot named 'ghost'"):
            registry.load_fleet_manifest("ghost")

    def test_missing_fleet_member_lists_available(self, registry, instance):
        stage = StagePredictor(instance, config=fast_profile())
        registry.save_fleet_member(stage, "fleet-a")
        registry.save_fleet_manifest("fleet-a", [instance.instance_id], n_shards=1)
        with pytest.raises(FileNotFoundError) as excinfo:
            registry.load_fleet_member("fleet-a", "no-such-instance")
        assert instance.instance_id in str(excinfo.value)

    def test_missing_fleet_global(self, registry):
        with pytest.raises(FileNotFoundError, match="fleet snapshot global model"):
            registry.load_fleet_global("ghost")


class TestCorruptArtifacts:
    def test_truncated_state_pickle(self, registry, instance):
        stage = StagePredictor(instance, config=fast_profile())
        path = registry.save_service_state(stage, "snap")
        state_path = os.path.join(path, "state.pkl")
        data = open(state_path, "rb").read()
        with open(state_path, "wb") as f:
            f.write(data[: len(data) // 2])
        with pytest.raises(ValueError, match="corrupt or truncated"):
            registry.load_service_state("snap")

    def test_truncated_global_npz(self, registry):
        path = registry.save_global_model(_tiny_global_model(), "tiny")
        data = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(data[: len(data) // 2])
        with pytest.raises(ValueError, match="corrupt or truncated"):
            registry.load_global_model("tiny")

    def test_garbage_state_pickle(self, registry, instance):
        stage = StagePredictor(instance, config=fast_profile())
        path = registry.save_service_state(stage, "snap")
        with open(os.path.join(path, "state.pkl"), "wb") as f:
            f.write(b"this is not a pickle")
        with pytest.raises(ValueError, match="corrupt or truncated"):
            registry.load_service_state("snap")

    def test_corrupt_fleet_manifest_json(self, registry, instance):
        stage = StagePredictor(instance, config=fast_profile())
        registry.save_fleet_member(stage, "fleet-b")
        registry.save_fleet_manifest("fleet-b", [instance.instance_id], n_shards=1)
        manifest_path = os.path.join(registry.fleet_snapshot_path("fleet-b"), "fleet.json")
        with open(manifest_path, "w") as f:
            f.write("{ not json")
        with pytest.raises(ValueError, match="corrupt manifest"):
            registry.load_fleet_manifest("fleet-b")

    def test_truncated_fleet_member_pickle(self, registry, instance):
        stage = StagePredictor(instance, config=fast_profile())
        path = registry.save_fleet_member(stage, "fleet-c")
        registry.save_fleet_manifest("fleet-c", [instance.instance_id], n_shards=1)
        state_path = os.path.join(path, "state.pkl")
        data = open(state_path, "rb").read()
        with open(state_path, "wb") as f:
            f.write(data[: len(data) // 2])
        with pytest.raises(ValueError, match="corrupt or truncated"):
            registry.load_fleet_member("fleet-c", instance.instance_id)


class TestHappyPathStillWorks:
    def test_global_model_roundtrip_keeps_residual_variance(self, registry):
        registry.save_global_model(_tiny_global_model(), "tiny")
        loaded = registry.load_global_model("tiny")
        assert loaded.residual_variance == 0.25

    def test_service_state_roundtrip_keeps_width_bins(self, registry, instance):
        stage = StagePredictor(instance, config=fast_profile())
        stage.interval_width_bins[3] = 7
        registry.save_service_state(stage, "snap")
        loaded, _ = registry.load_service_state("snap")
        assert loaded.interval_width_bins == stage.interval_width_bins


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
    gen = FleetGenerator(FleetConfig(seed=5, volume_scale=0.1))
    instance = gen.sample_instance(0)
    return instance, gen.generate_trace(instance, 0.7)


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
        stream bit-for-bit — the property live migration rests on."""
        instance, trace = _instance_trace()
        n_warm = len(trace) // 2
        stage = StagePredictor(instance, config=fast_profile(), random_state=0)
        _replay_segment(stage, trace, 0, n_warm)
        data = encode_state(stage)

        want = _replay_segment(stage, trace, n_warm, len(trace))
        got = _replay_segment(decode_state(data), trace, n_warm, len(trace))
        assert np.array_equal(got, want)

    def test_fresh_spawn_process_restore(self):
        """The state bytes survive a cold process boundary (spawn: no
        inherited memory), exactly as a target shard receives them."""
        import multiprocessing
        import pickle
        from concurrent.futures import ProcessPoolExecutor

        instance, trace = _instance_trace()
        n_warm = len(trace) // 2
        stage = StagePredictor(instance, config=fast_profile(), random_state=0)
        _replay_segment(stage, trace, 0, n_warm)
        data = encode_state(stage)
        want = _replay_segment(stage, trace, n_warm, len(trace))

        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            payload = pool.submit(_decode_state_and_predict, (data, n_warm)).result(timeout=300)
        assert np.array_equal(pickle.loads(payload), want)

    def test_truncated_bytes_name_the_artifact(self, instance):
        data = encode_state(StagePredictor(instance, config=fast_profile()))
        with pytest.raises(ValueError, match="migration state of 'x' is corrupt or truncated"):
            decode_state(data[: len(data) // 2], artifact="migration state of 'x'")

    def test_fleet_member_file_holds_the_state_bytes(self, registry, instance):
        stage = StagePredictor(instance, config=fast_profile())
        path = registry.save_fleet_member(stage, "fleet-d")
        with open(os.path.join(path, "state.pkl"), "rb") as f:
            assert f.read() == encode_state(stage)
        assert not os.path.exists(os.path.join(registry.root, "instances"))
