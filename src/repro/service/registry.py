"""Model registry: persistence for the online serving layer.

A :class:`ModelRegistry` is a directory holding three kinds of artifacts:

- **global models** — the fleet-shared GCN, stored as the ``.npz``
  produced by :mod:`repro.global_model.serialization` (the paper ships
  exactly one such artifact fleet-wide);
- **service snapshots** — one directory per named snapshot, pairing that
  ``.npz`` with a pickle of the per-instance state (exec-time cache
  contents and counters, local ensemble + training pool, running-median
  default, routing counters, configs);
- **fleet snapshots** — one directory per named
  :class:`~repro.service.FleetGateway` snapshot: a single manifest
  spanning every shard (``fleet.json``), the fleet-shared global model
  stored **once**, and one per-instance member state each shard wrote
  for the instances it owns.  Because shard assignment never affects
  results, a fleet snapshot can be restored under any shard count.

A fleet member's file holds exactly the bytes of :func:`encode_state`,
the one per-instance state format.  A live migration ships the same
bytes in-band from the source shard to the target, so it needs no
registry at all.

The snapshot contract is *bit-for-bit warm restart*: a service restored
from a snapshot produces exactly the predictions the snapshotted service
would have produced on the same subsequent op stream.  Everything that
seeds future behavior rides along — ``random_state``, the retrain
counter (which salts each retrain's ensemble seed), and the
partially-filled training pool — so even retrains after the restart
reproduce the uninterrupted run.
"""

from __future__ import annotations

import json
import os
import pickle
import zipfile
from typing import List, Optional, Sequence

from repro.core.config import ServiceConfig
from repro.core.stage import StagePredictor
from repro.global_model.model import GlobalModel
from repro.global_model.serialization import load_global_model, save_global_model

__all__ = ["ModelRegistry", "decode_state", "encode_state"]

_SNAPSHOT_FORMAT_VERSION = 1
_FLEET_FORMAT_VERSION = 1
_STATE_FILE = "state.pkl"
_GLOBAL_FILE = "global.npz"
_MANIFEST_FILE = "manifest.json"
_FLEET_MANIFEST_FILE = "fleet.json"
_FLEET_INSTANCES_DIR = "instances"


def _unpickle(data: bytes, artifact: str):
    try:
        return pickle.loads(data)
    except (pickle.UnpicklingError, EOFError, AttributeError, IndexError) as exc:
        raise ValueError(f"{artifact} is corrupt or truncated: {exc}") from exc


def encode_state(stage: StagePredictor) -> bytes:
    """One quiesced per-instance predictor as bytes.

    The fleet-shared global model is detached first, so the bytes are
    shard- and fleet-agnostic and a thousand-instance fleet never holds
    a thousand copies of the same model.  The caller must have quiesced
    the predictor (a paused scheduler) for the duration of the call.
    """
    global_model, stage.global_model = stage.global_model, None
    try:
        return pickle.dumps({"format_version": _FLEET_FORMAT_VERSION, "stage": stage})
    finally:
        stage.global_model = global_model


def decode_state(
    data: bytes,
    global_model: Optional[GlobalModel] = None,
    artifact: str = "instance state",
) -> StagePredictor:
    """Inverse of :func:`encode_state`, re-attaching the shared model.

    Corrupt or truncated bytes raise a ``ValueError`` naming
    ``artifact``, never a raw pickle traceback.
    """
    payload = _unpickle(data, artifact)
    version = payload.get("format_version")
    if version != _FLEET_FORMAT_VERSION:
        raise ValueError(f"{artifact} has unsupported format version {version}")
    stage: StagePredictor = payload["stage"]
    stage.global_model = global_model
    return stage


class ModelRegistry:
    """Directory-backed store for global models and service snapshots."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(self._global_dir, exist_ok=True)
        os.makedirs(self._service_dir, exist_ok=True)
        os.makedirs(self._fleet_dir, exist_ok=True)

    @property
    def _global_dir(self) -> str:
        return os.path.join(self.root, "global_models")

    @property
    def _service_dir(self) -> str:
        return os.path.join(self.root, "services")

    @property
    def _fleet_dir(self) -> str:
        return os.path.join(self.root, "fleets")

    # ------------------------------------------------------------------
    # error-path helpers: every load failure names the artifact and, for
    # missing ones, lists what the registry actually holds — never a bare
    # FileNotFoundError on an internal path or a raw pickle traceback
    # ------------------------------------------------------------------
    def _require(self, path: str, kind: str, name: str, available: List[str]) -> None:
        if not os.path.exists(path):
            listing = ", ".join(repr(a) for a in available) if available else "none"
            raise FileNotFoundError(
                f"no {kind} named {name!r} in registry {self.root!r} "
                f"(available: {listing})"
            )

    @staticmethod
    def _read_global(path: str, kind: str, name: str) -> GlobalModel:
        try:
            return load_global_model(path)
        except (zipfile.BadZipFile, OSError, KeyError) as exc:
            raise ValueError(
                f"{kind} {name!r} has a corrupt or truncated global model "
                f"({path}): {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # fleet-shared global models
    # ------------------------------------------------------------------
    def global_model_path(self, name: str = "global") -> str:
        return os.path.join(self._global_dir, f"{name}.npz")

    def save_global_model(self, model: GlobalModel, name: str = "global") -> str:
        """Persist one fleet-wide global model; returns its path."""
        path = self.global_model_path(name)
        save_global_model(model, path)
        return path

    def load_global_model(self, name: str = "global") -> GlobalModel:
        path = self.global_model_path(name)
        self._require(path, "global model", name, self.list_global_models())
        return self._read_global(path, "global model", name)

    def list_global_models(self) -> List[str]:
        return sorted(
            os.path.splitext(f)[0]
            for f in os.listdir(self._global_dir)
            if f.endswith(".npz")
        )

    # ------------------------------------------------------------------
    # per-instance service snapshots
    # ------------------------------------------------------------------
    def service_snapshot_path(self, name: str) -> str:
        return os.path.join(self._service_dir, name)

    def list_service_snapshots(self) -> List[str]:
        return sorted(
            d
            for d in os.listdir(self._service_dir)
            if os.path.isdir(os.path.join(self._service_dir, d))
        )

    def save_service_state(
        self,
        stage: StagePredictor,
        name: str,
        service_config: Optional[ServiceConfig] = None,
    ) -> str:
        """Snapshot one quiesced Stage predictor under ``name``.

        The caller must have drained any in-flight operations first
        (:meth:`PredictionService.snapshot` does).  The global model is
        written through :mod:`~repro.global_model.serialization`; the
        per-instance state is pickled with the global model detached, so
        the fleet-shared artifact is never duplicated inside it.
        """
        path = self.service_snapshot_path(name)
        os.makedirs(path, exist_ok=True)
        global_model, stage.global_model = stage.global_model, None
        try:
            if global_model is not None:
                save_global_model(global_model, os.path.join(path, _GLOBAL_FILE))
            with open(os.path.join(path, _STATE_FILE), "wb") as f:
                pickle.dump(
                    {
                        "format_version": _SNAPSHOT_FORMAT_VERSION,
                        "service_config": service_config,
                        "stage": stage,
                    },
                    f,
                )
        finally:
            stage.global_model = global_model
        manifest = {
            "format_version": _SNAPSHOT_FORMAT_VERSION,
            "instance_id": stage.instance.instance_id,
            "has_global_model": global_model is not None,
            "cache_entries": len(stage.cache),
            "n_local_retrains": stage.local.n_retrains,
        }
        with open(os.path.join(path, _MANIFEST_FILE), "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
        return path

    def load_service_state(self, name: str):
        """Load a snapshot; returns ``(stage, service_config)``.

        Raises a self-describing ``FileNotFoundError`` (naming the
        snapshot and listing what exists) when ``name`` is unknown, and
        ``ValueError`` when the on-disk state is corrupt or truncated.
        """
        path = self.service_snapshot_path(name)
        state_path = os.path.join(path, _STATE_FILE)
        self._require(state_path, "service snapshot", name, self.list_service_snapshots())
        with open(state_path, "rb") as f:
            payload = _unpickle(f.read(), f"service snapshot {name!r} ({state_path})")
        version = payload.get("format_version")
        if version != _SNAPSHOT_FORMAT_VERSION:
            raise ValueError(f"unsupported service snapshot version {version}")
        stage: StagePredictor = payload["stage"]
        global_path = os.path.join(path, _GLOBAL_FILE)
        if os.path.exists(global_path):
            stage.global_model = self._read_global(global_path, "service snapshot", name)
        return stage, payload.get("service_config")

    def load_service(
        self,
        name: str,
        service_config: Optional[ServiceConfig] = None,
    ):
        """Rebuild a live :class:`PredictionService` from a snapshot.

        ``service_config`` overrides the snapshotted batching knobs when
        given (they are serving-side only and never affect predictions).
        """
        from .server import PredictionService

        stage, saved_config = self.load_service_state(name)
        return PredictionService.from_stage(stage, service_config=service_config or saved_config)

    # ------------------------------------------------------------------
    # whole-fleet gateway snapshots
    # ------------------------------------------------------------------
    def fleet_snapshot_path(self, name: str) -> str:
        return os.path.join(self._fleet_dir, name)

    def fleet_member_path(self, name: str, instance_id: str) -> str:
        return os.path.join(self.fleet_snapshot_path(name), _FLEET_INSTANCES_DIR, instance_id)

    def list_fleet_snapshots(self) -> List[str]:
        return sorted(
            d
            for d in os.listdir(self._fleet_dir)
            if os.path.isdir(os.path.join(self._fleet_dir, d))
        )

    def save_fleet_member(self, stage: StagePredictor, name: str) -> str:
        """Snapshot one quiesced per-instance predictor into fleet ``name``.

        Called from *inside* each shard worker process for the instances
        it owns.  The fleet-shared global model is always detached first
        — it is written exactly once, by :meth:`save_fleet_manifest`'s
        caller — so a thousand-instance fleet never stores a thousand
        copies of the same ``.npz``.
        """
        path = self.fleet_member_path(name, stage.instance.instance_id)
        os.makedirs(path, exist_ok=True)
        with open(os.path.join(path, _STATE_FILE), "wb") as f:
            f.write(encode_state(stage))
        return path

    def load_fleet_member(
        self,
        name: str,
        instance_id: str,
        global_model: Optional[GlobalModel] = None,
    ) -> StagePredictor:
        """Load one member predictor, re-attaching the shared model."""
        member = f"{name}/{instance_id}"
        state_path = os.path.join(self.fleet_member_path(name, instance_id), _STATE_FILE)
        instances_dir = os.path.join(self.fleet_snapshot_path(name), _FLEET_INSTANCES_DIR)
        available = sorted(os.listdir(instances_dir)) if os.path.isdir(instances_dir) else []
        self._require(state_path, "fleet member", member, available)
        with open(state_path, "rb") as f:
            data = f.read()
        return decode_state(data, global_model, f"fleet member {member!r} ({state_path})")

    def save_fleet_manifest(
        self,
        name: str,
        instance_ids: Sequence[str],
        n_shards: int,
        global_model: Optional[GlobalModel] = None,
    ) -> str:
        """Write the one manifest spanning every shard (plus the shared
        model, once).  ``n_shards`` is recorded as provenance only — the
        determinism contract lets a snapshot restore under any shard
        count — and the member states must already be on disk (the
        gateway sequences per-shard member saves before this call).
        """
        path = self.fleet_snapshot_path(name)
        os.makedirs(path, exist_ok=True)
        if global_model is not None:
            save_global_model(global_model, os.path.join(path, _GLOBAL_FILE))
        missing = [
            instance_id
            for instance_id in instance_ids
            if not os.path.exists(
                os.path.join(self.fleet_member_path(name, instance_id), _STATE_FILE)
            )
        ]
        if missing:
            raise ValueError(f"fleet snapshot {name!r} is missing member state for {missing}")
        manifest = {
            "format_version": _FLEET_FORMAT_VERSION,
            "n_shards": int(n_shards),
            "has_global_model": global_model is not None,
            "instances": sorted(instance_ids),
        }
        with open(os.path.join(path, _FLEET_MANIFEST_FILE), "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
        return path

    def load_fleet_manifest(self, name: str) -> dict:
        path = os.path.join(self.fleet_snapshot_path(name), _FLEET_MANIFEST_FILE)
        self._require(path, "fleet snapshot", name, self.list_fleet_snapshots())
        try:
            with open(path) as f:
                manifest = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"fleet snapshot {name!r} has a corrupt manifest ({path}): {exc}"
            ) from exc
        version = manifest.get("format_version")
        if version != _FLEET_FORMAT_VERSION:
            raise ValueError(f"unsupported fleet snapshot version {version}")
        return manifest

    def load_fleet_global(self, name: str) -> GlobalModel:
        path = os.path.join(self.fleet_snapshot_path(name), _GLOBAL_FILE)
        self._require(path, "fleet snapshot global model", name, self.list_fleet_snapshots())
        return self._read_global(path, "fleet snapshot", name)
