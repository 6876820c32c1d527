"""Model registry: persistence for the online serving layer.

A :class:`ModelRegistry` is a directory of *snapshots*, one
subdirectory per name, and a snapshot is the one artifact kind it
keeps.  A snapshot holds:

- ``manifest.json`` — the instances it covers, whether it carries a
  global model and (as provenance only) the shard count it was taken
  under;
- ``global.npz`` — the fleet-shared GCN, stored **once** in the format
  of :mod:`repro.global_model.serialization` (the paper ships exactly
  one such model fleet-wide); absent when the snapshot has none;
- ``instances/<id>/state.pkl`` — each instance's state (exec-time cache
  contents and counters, local ensemble + training pool, running-median
  default, routing counters), exactly the bytes of :func:`encode_state`.

A :class:`~repro.service.PredictionService` snapshot is a one-instance
snapshot; a :class:`~repro.service.FleetGateway` snapshot has one member
per instance, each written by the shard that owns it.  Because shard
assignment never affects results, either restores as either: a service
snapshot restores as a gateway under any shard count, and a
one-instance gateway snapshot restores as a service.  A live migration
ships the same :func:`encode_state` bytes in-band from the source shard
to the target, so it needs no registry at all.

The snapshot contract is *bit-for-bit warm restart*: a restored tier
produces exactly the predictions the snapshotted one would have
produced on the same subsequent op stream.  Everything that seeds
future behavior rides along — ``random_state``, the retrain counter
(which salts each retrain's ensemble seed), and the partially-filled
training pool — so even retrains after the restart reproduce the
uninterrupted run.  Serving knobs are not part of a snapshot: the
restoring caller supplies them, and they never affect predictions.
"""

from __future__ import annotations

import json
import os
import pickle
import zipfile
from typing import List, Optional, Sequence

from repro.core.stage import StagePredictor
from repro.global_model.model import GlobalModel
from repro.global_model.serialization import load_global_model, save_global_model

__all__ = ["ModelRegistry", "decode_state", "encode_state"]

_FORMAT_VERSION = 1
_STATE_FILE = "state.pkl"
_GLOBAL_FILE = "global.npz"
_MANIFEST_FILE = "manifest.json"
_INSTANCES_DIR = "instances"


def encode_state(stage: StagePredictor) -> bytes:
    """One quiesced per-instance predictor as bytes.

    The fleet-shared global model is detached first, so the bytes are
    shard- and fleet-agnostic and a thousand-instance fleet never holds
    a thousand copies of the same model.  The caller must have quiesced
    the predictor (a paused scheduler) for the duration of the call.
    """
    global_model, stage.global_model = stage.global_model, None
    try:
        return pickle.dumps({"format_version": _FORMAT_VERSION, "stage": stage})
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
    try:
        payload = pickle.loads(data)
    except (pickle.UnpicklingError, EOFError, AttributeError, IndexError) as exc:
        raise ValueError(f"{artifact} is corrupt or truncated: {exc}") from exc
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"{artifact} has unsupported format version {version}")
    stage: StagePredictor = payload["stage"]
    stage.global_model = global_model
    return stage


class ModelRegistry:
    """Directory-backed store of service and fleet snapshots."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _require(self, path: str, kind: str, name: str, available: List[str]) -> None:
        """Every load failure names the artifact and, for a missing one,
        lists what the registry holds — never a bare
        ``FileNotFoundError`` on an internal path."""
        if not os.path.exists(path):
            listing = ", ".join(repr(a) for a in available) if available else "none"
            raise FileNotFoundError(
                f"no {kind} named {name!r} in registry {self.root!r} "
                f"(available: {listing})"
            )

    def snapshot_path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def member_path(self, name: str, instance_id: str) -> str:
        return os.path.join(self.snapshot_path(name), _INSTANCES_DIR, instance_id)

    def list_snapshots(self) -> List[str]:
        return sorted(d for d in os.listdir(self.root) if os.path.isdir(os.path.join(self.root, d)))

    def save_member(self, stage: StagePredictor, name: str) -> str:
        """Write one quiesced per-instance predictor into snapshot ``name``.

        A gateway calls this from *inside* each shard worker process for
        the instances it owns.  The fleet-shared global model is always
        detached — it is written exactly once, by :meth:`save_manifest`
        — so a thousand-instance fleet never stores a thousand copies of
        the same ``.npz``.
        """
        path = self.member_path(name, stage.instance.instance_id)
        os.makedirs(path, exist_ok=True)
        with open(os.path.join(path, _STATE_FILE), "wb") as f:
            f.write(encode_state(stage))
        return path

    def load_member(
        self,
        name: str,
        instance_id: str,
        global_model: Optional[GlobalModel] = None,
    ) -> StagePredictor:
        """Load one member predictor, re-attaching the shared model."""
        member = f"{name}/{instance_id}"
        state_path = os.path.join(self.member_path(name, instance_id), _STATE_FILE)
        instances_dir = os.path.join(self.snapshot_path(name), _INSTANCES_DIR)
        available = sorted(os.listdir(instances_dir)) if os.path.isdir(instances_dir) else []
        self._require(state_path, "snapshot member", member, available)
        with open(state_path, "rb") as f:
            data = f.read()
        return decode_state(data, global_model, f"snapshot member {member!r} ({state_path})")

    def save_manifest(
        self,
        name: str,
        instance_ids: Sequence[str],
        n_shards: int,
        global_model: Optional[GlobalModel] = None,
    ) -> str:
        """Write the one manifest spanning every member (plus the shared
        model, once); returns the snapshot's path.  ``n_shards`` is
        recorded as provenance only — the determinism contract lets a
        snapshot restore under any shard count — and the member states
        must already be on disk (the gateway sequences per-shard member
        saves before this call).
        """
        path = self.snapshot_path(name)
        os.makedirs(path, exist_ok=True)
        if global_model is not None:
            save_global_model(global_model, os.path.join(path, _GLOBAL_FILE))
        missing = [
            instance_id
            for instance_id in instance_ids
            if not os.path.exists(os.path.join(self.member_path(name, instance_id), _STATE_FILE))
        ]
        if missing:
            raise ValueError(f"snapshot {name!r} is missing member state for {missing}")
        manifest = {
            "format_version": _FORMAT_VERSION,
            "n_shards": int(n_shards),
            "has_global_model": global_model is not None,
            "instances": sorted(instance_ids),
        }
        with open(os.path.join(path, _MANIFEST_FILE), "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
        return path

    def load_manifest(self, name: str) -> dict:
        path = os.path.join(self.snapshot_path(name), _MANIFEST_FILE)
        self._require(path, "snapshot", name, self.list_snapshots())
        try:
            with open(path) as f:
                manifest = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"snapshot {name!r} has a corrupt manifest ({path}): {exc}") from exc
        version = manifest.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        return manifest

    def load_global(self, name: str) -> GlobalModel:
        path = os.path.join(self.snapshot_path(name), _GLOBAL_FILE)
        self._require(path, "snapshot global model", name, self.list_snapshots())
        try:
            return load_global_model(path)
        except (zipfile.BadZipFile, OSError, KeyError) as exc:
            raise ValueError(
                f"snapshot {name!r} has a corrupt or truncated global model ({path}): {exc}"
            ) from exc
