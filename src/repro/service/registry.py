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

Only the process that owns a serving tier touches a registry (a
gateway's parent, never a shard worker): it gathers every member's
:func:`encode_state` bytes first and hands them to
:meth:`ModelRegistry.save`, which writes the whole snapshot into a
hidden staging directory and renames it over the name, so a snapshot is
whole or absent — a save that fails part-way leaves the previous one
under that name untouched.  A :class:`~repro.service.PredictionService`
snapshot is a one-instance snapshot; a
:class:`~repro.service.FleetGateway` snapshot has one member per
instance, exported from the shard that owns it.  Because shard
assignment never affects results, either restores as either: a service
snapshot restores as a gateway under any shard count, and a
one-instance gateway snapshot restores as a service.  A live migration
ships the same :func:`encode_state` bytes from the source shard to the
target, so it needs no registry at all.

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
import shutil
import uuid
import zipfile
from typing import List, Mapping, Optional

from repro.core.stage import StagePredictor
from repro.global_model.model import GlobalModel
from repro.global_model.serialization import load_global_model, save_global_model

__all__ = ["ModelRegistry", "decode_state", "encode_state"]

#: 2: a fitted GBM pickles as packed forest tables, with no tree objects
_FORMAT_VERSION = 2
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
    """Directory-backed store of snapshots."""

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

    def list_snapshots(self) -> List[str]:
        """Every whole snapshot; hidden (staging) directories are skipped."""
        return sorted(
            d
            for d in os.listdir(self.root)
            if not d.startswith(".") and os.path.isdir(os.path.join(self.root, d))
        )

    def save(
        self,
        name: str,
        states: Mapping[str, bytes],
        n_shards: int,
        global_model: Optional[GlobalModel] = None,
    ) -> str:
        """Write snapshot ``name`` whole; returns its path.

        ``states`` maps each instance id to its :func:`encode_state`
        bytes; the fleet-shared model is written once.  ``n_shards`` is
        recorded as provenance only — the determinism contract lets a
        snapshot restore under any shard count.  Everything is written
        into a hidden staging directory that then replaces the old
        snapshot of that name, so a save that fails part-way leaves the
        previous snapshot untouched and one that succeeds leaves no
        member of it behind.
        """
        path = self.snapshot_path(name)
        staging = os.path.join(self.root, f".{name}.{uuid.uuid4().hex}")
        try:
            os.makedirs(os.path.join(staging, _INSTANCES_DIR))
            for instance_id, data in states.items():
                member = os.path.join(staging, _INSTANCES_DIR, instance_id)
                os.mkdir(member)
                with open(os.path.join(member, _STATE_FILE), "wb") as f:
                    f.write(data)
            if global_model is not None:
                save_global_model(global_model, os.path.join(staging, _GLOBAL_FILE))
            manifest = {
                "format_version": _FORMAT_VERSION,
                "n_shards": int(n_shards),
                "has_global_model": global_model is not None,
                "instances": sorted(states),
            }
            with open(os.path.join(staging, _MANIFEST_FILE), "w") as f:
                json.dump(manifest, f, indent=2, sort_keys=True)
                f.write("\n")
            # a directory cannot be renamed over a non-empty one: move
            # the old snapshot aside first, then drop it
            retired = None
            if os.path.exists(path):
                retired = os.path.join(self.root, f".{name}.{uuid.uuid4().hex}")
                os.rename(path, retired)
            os.rename(staging, path)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        if retired is not None:
            shutil.rmtree(retired, ignore_errors=True)
        return path

    def load_state(self, name: str, instance_id: str) -> bytes:
        """One member's :func:`encode_state` bytes."""
        member = f"{name}/{instance_id}"
        instances_dir = os.path.join(self.snapshot_path(name), _INSTANCES_DIR)
        state_path = os.path.join(instances_dir, instance_id, _STATE_FILE)
        available = sorted(os.listdir(instances_dir)) if os.path.isdir(instances_dir) else []
        self._require(state_path, "snapshot member", member, available)
        with open(state_path, "rb") as f:
            return f.read()

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
