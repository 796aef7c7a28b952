"""Versioned model registry: content-addressed ``.npz`` artifacts on disk.

A registry root holds two trees::

    root/
      objects/<digest>.npz          # content-addressed model artifacts
      models/<name>/manifest.jsonl  # append-only publish/tag event log

Publishing serialises a trained classifier with
:func:`repro.classifiers.save_model`, names the artifact by the digest of
its bytes (:func:`repro.cache.digest_file` — the same hashing family the
experiment cache uses), and appends a manifest line carrying an
auto-incremented version plus the fit-time metadata the serving layer
needs: dataset, technique, seed, label map and input shape.  Identical
models deduplicate to one object file however many versions point at it.

Versions are immutable; mutable names are **tags** (``tag("fraud", 3,
"prod")``), which later publishes or re-tags may move.  Lookup accepts a
version number, a tag, or nothing (latest version).  The manifest is
plain JSON lines, so a registry is inspectable with ``cat`` and safely
re-readable while a publisher appends.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

import numpy as np

from ..backend import ComputePolicy, apply_inference_policy, check_parity
from ..cache import digest_file
from ..classifiers import load_model, save_model

__all__ = ["ModelRecord", "ModelRegistry", "model_metadata", "validate_reference"]


def validate_reference(name: str, tags: tuple[str, ...] | list[str] = ()) -> None:
    """Raise ``ValueError`` for a name/tags combination publish would refuse.

    Callers that train before publishing (the CLI) run this first, so an
    input typo fails in milliseconds instead of after minutes of fitting.
    """
    _check_name(name)
    for tag in tags:
        _check_tag(tag)


def model_metadata(model, **extra) -> dict:
    """Fit-time metadata for *model*: kind, label map and input shape.

    Keyword arguments (``dataset=...``, ``technique=...``, ``seed=...``)
    are merged in verbatim; the classifier-derived fields are extracted
    from whichever attributes the model family exposes.
    """
    ridge = getattr(model, "ridge", model)
    classes = getattr(ridge, "classes_", None)
    if classes is None:
        classes = getattr(model, "classes_", None)
    transformer = getattr(model, "transformer", None)
    input_shape = getattr(transformer, "input_shape", None)
    if input_shape is None:
        # Every Classifier remembers its fit shape; transform-backed
        # families additionally expose it on the transformer (checked
        # first — it survives serialization round trips).
        input_shape = getattr(model, "input_shape", None)
    metadata = {
        "model_kind": type(model).__name__,
        "labels": [int(c) for c in np.asarray(classes)] if classes is not None else None,
        "input_shape": list(input_shape) if input_shape is not None else None,
    }
    metadata.update(extra)
    return metadata


@dataclass(frozen=True)
class ModelRecord:
    """One published version of one model name."""

    name: str
    version: int
    digest: str
    created_at: str
    metadata: dict = field(default_factory=dict)
    tags: tuple[str, ...] = ()

    def describe(self) -> dict:
        """JSON-ready summary (the ``/v1/models`` wire format)."""
        return {
            "name": self.name,
            "version": self.version,
            "digest": self.digest,
            "created_at": self.created_at,
            "tags": list(self.tags),
            "metadata": self.metadata,
        }


class ModelRegistry:
    """Publish, look up, tag and load versioned classifiers under *root*."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self._objects = self.root / "objects"
        self._models = self.root / "models"
        #: versions() memo keyed by manifest (mtime_ns, size) — the serving
        #: hot path resolves a record per request, and reparsing the JSONL
        #: every time would dominate cache-hit predictions
        self._versions_cache: dict[str, tuple[tuple[int, int], list[ModelRecord]]] = {}
        #: list_models() memo keyed by the models-root directory stat
        #: (mtime_ns, size, nlink) — /healthz hits this per request, and
        #: an os.scandir per health probe is wasted I/O under load
        self._names_cache: tuple[tuple[int, int, int], list[str]] | None = None
        self._cache_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # write side
    # ------------------------------------------------------------------ #

    def publish(self, model, name: str, *, metadata: dict | None = None,
                tags: tuple[str, ...] | list[str] = (),
                dtype: str | None = None,
                compute_policy: "ComputePolicy | None" = None,
                parity_panel: np.ndarray | None = None) -> ModelRecord:
        """Serialise *model* as the next version of *name*.

        The artifact lands in ``objects/`` under its content digest
        (deduplicated), then a manifest line records version, metadata and
        initial tags.  Returns the new :class:`ModelRecord`.

        *dtype* casts the archive's kernel bank (``"float32"`` halves the
        object size); *compute_policy* is recorded in the metadata and
        honoured by :meth:`load`, so the serving layer runs the model
        under the policy it was published for.  With a *parity_panel* — a
        small representative panel — the policy is first swept through
        :func:`repro.backend.check_parity`, so a policy that disagrees
        with the float64 reference never reaches a manifest.
        """
        validate_reference(name, tags)  # before the artifact write: no orphans
        metadata = dict(metadata or {})
        if compute_policy is not None:
            if parity_panel is not None:
                check_parity(model, parity_panel, compute_policy)
            metadata["compute_policy"] = compute_policy.as_dict()
        metadata["bank_dtype"] = str(np.dtype(dtype).name) if dtype else "float64"
        self._objects.mkdir(parents=True, exist_ok=True)
        manifest = self._manifest(name)
        manifest.parent.mkdir(parents=True, exist_ok=True)

        fd, tmp_name = tempfile.mkstemp(suffix=".npz", dir=self._objects)
        os.close(fd)
        try:
            save_model(model, tmp_name, dtype=dtype)
            digest = digest_file(tmp_name)
            target = self._object_path(digest)
            if target.exists():
                os.unlink(tmp_name)  # identical artifact already stored
            else:
                os.replace(tmp_name, target)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise

        # Version numbering is a read-then-append; the manifest lock keeps
        # two concurrent publishers from both minting version N+1 (the
        # later line would silently shadow the earlier one).
        with _locked(manifest):
            version = max((r.version for r in self.versions(name)), default=0) + 1
            row = {
                "kind": "publish",
                "version": version,
                "digest": digest,
                "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                "metadata": metadata or {},
                "tags": list(tags),
            }
            self._append(manifest, row)
        return self.record(name, version)

    def tag(self, name: str, version: int, tag: str) -> ModelRecord:
        """Point *tag* at ``name:version`` (moving it from any other version)."""
        _check_tag(tag)
        record = self.record(name, version)  # validates existence
        manifest = self._manifest(name)
        # Same lock publish() holds for its read-then-append version mint:
        # an unlocked tag append racing a publish could land between the
        # publisher's read and write and interleave the manifest.
        with _locked(manifest):
            self._append(manifest, {"kind": "tag", "tag": str(tag),
                                    "version": record.version})
        return self.record(name, version)

    # ------------------------------------------------------------------ #
    # read side
    # ------------------------------------------------------------------ #

    #: only memoise a scan once the models root has been unchanged this
    #: long — coarse-mtime filesystems (1 s on ext3/NFS) could otherwise
    #: serve a stale cache when two publishes land in one mtime granule
    _MTIME_QUIESCENCE = 2.0

    def list_models(self) -> list[str]:
        """Sorted names that have at least one published version.

        Memoised on the models-root directory stat: creating or removing
        a model directory bumps its mtime, so the cache invalidates on
        publish of a new name while repeated health checks cost one
        ``stat``.  The memo key is the full ``(mtime_ns, size, nlink)``
        triple, not the mtime alone: a publish from *another process*
        can land inside the same coarse-mtime tick (1 s granularity on
        ext3/NFS), but it still adds a directory entry — which moves
        ``st_nlink`` (one link per subdirectory on POSIX filesystems)
        and usually ``st_size`` — so a cross-process publish invalidates
        the memo even when the mtime does not move.  A scan is only
        cached once the directory has been quiet for
        ``_MTIME_QUIESCENCE`` seconds, so mtime granularity can never pin
        a stale listing.
        """
        try:
            stat = self._models.stat()
        except OSError:
            return []
        stamp = (stat.st_mtime_ns, stat.st_size, stat.st_nlink)
        with self._cache_lock:
            if self._names_cache is not None and self._names_cache[0] == stamp:
                return list(self._names_cache[1])
        names, complete = [], True
        for path in self._models.iterdir():
            if (path / "manifest.jsonl").is_file():
                names.append(path.name)
            elif path.is_dir():
                # A publish in flight: the directory exists but its first
                # manifest line hasn't landed.  Don't cache a scan that
                # would hide the name until the *next* directory change.
                complete = False
        names.sort()
        if complete and time.time() - stat.st_mtime >= self._MTIME_QUIESCENCE:
            with self._cache_lock:
                self._names_cache = (stamp, names)
        return names

    def versions(self, name: str) -> list[ModelRecord]:
        """Every published version of *name*, oldest first, tags resolved."""
        manifest = self._manifest(name)
        try:
            stat = manifest.stat()
        except OSError:
            return []
        stamp = (stat.st_mtime_ns, stat.st_size)
        with self._cache_lock:
            cached = self._versions_cache.get(name)
            if cached is not None and cached[0] == stamp:
                return cached[1]
        records: dict[int, dict] = {}
        tag_owner: dict[str, int] = {}
        for line in manifest.read_text().splitlines():
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn trailing write; ignore
            if row.get("kind") == "publish":
                records[row["version"]] = row
                for tag in row.get("tags", ()):
                    tag_owner[tag] = row["version"]
            elif row.get("kind") == "tag":
                tag_owner[row["tag"]] = row["version"]
        result = [
            ModelRecord(
                name=name, version=version, digest=row["digest"],
                created_at=row["created_at"], metadata=row.get("metadata", {}),
                tags=tuple(sorted(t for t, v in tag_owner.items() if v == version)),
            )
            for version, row in sorted(records.items())
        ]
        with self._cache_lock:
            self._versions_cache[name] = (stamp, result)
        return result

    def record(self, name: str, version: int | str | None = None) -> ModelRecord:
        """The :class:`ModelRecord` for a version number, a tag, or (with
        ``None``) the latest version.  Raises ``KeyError`` when absent."""
        records = self.versions(name)
        if not records:
            raise KeyError(f"no model named {name!r} in registry {self.root}")
        if version is None:
            return records[-1]
        if isinstance(version, str) and not version.isdigit():
            for record in records:
                if version in record.tags:
                    return record
            raise KeyError(f"model {name!r} has no tag {version!r}")
        wanted = int(version)
        for record in records:
            if record.version == wanted:
                return record
        raise KeyError(f"model {name!r} has no version {wanted}")

    def load(self, name: str, version: int | str | None = None, *,
             mmap: bool = True, require_dtype: str | None = None):
        """Load the classifier for ``name[:version-or-tag]``.

        Returns ``(model, record)`` — the deserialised classifier plus the
        manifest record the serving layer reads labels and shapes from.

        Arrays are memory-mapped out of the object file by default (zero
        copy — an LRU-evicted model reloads in microseconds), and a
        ``compute_policy`` recorded at publish is applied to the model
        before it is returned, so a caller serves it exactly as
        published.  *require_dtype* is forwarded to
        :func:`repro.classifiers.load_model` and fails loudly on a
        precision mismatch.
        """
        record = self.record(name, version)
        path = self._object_path(record.digest)
        if not path.is_file():
            raise FileNotFoundError(
                f"registry object {record.digest} for {name}:{record.version} "
                f"is missing from {self._objects}"
            )
        model = load_model(path, mmap=mmap, require_dtype=require_dtype)
        policy = ComputePolicy.from_dict(record.metadata.get("compute_policy"))
        apply_inference_policy(model, policy)
        return model, record

    # ------------------------------------------------------------------ #

    def _object_path(self, digest: str) -> Path:
        return self._objects / f"{digest}.npz"

    def _manifest(self, name: str) -> Path:
        return self._models / name / "manifest.jsonl"

    @staticmethod
    def _append(manifest: Path, row: dict) -> None:
        with open(manifest, "a") as handle:
            handle.write(json.dumps(row) + "\n")
            handle.flush()


def _check_name(name: str) -> None:
    """Model names become directory names, so keep them path-safe."""
    if not name or any(c in name for c in "/\\") or name in (".", ".."):
        raise ValueError(f"invalid model name: {name!r}")


def _check_tag(tag: str) -> None:
    """Lookup reads all-digit strings as version numbers, so a numeric tag
    could never be resolved — refuse it at write time."""
    tag = str(tag)
    if not tag or tag.isdigit():
        raise ValueError(f"invalid tag (empty or all digits): {tag!r}")


@contextmanager
def _locked(manifest: Path):
    """Advisory exclusive lock on a manifest (released on process death)."""
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    with open(manifest.with_suffix(".lock"), "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)
