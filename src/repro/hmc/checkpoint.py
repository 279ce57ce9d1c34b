"""Gauge-configuration checkpointing.

Production HMC streams (paper Sec. VIII-D: thousands of trajectories
across many jobs) live and die by configuration I/O.  The format here
is a self-describing NPZ with a NERSC-style header (dimensions,
plaquette, link trace, checksum); loads validate the stored plaquette
against a recomputation — the classic guard against corrupted or
mislabeled ensembles.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..qdp.fields import latt_color_matrix, multi1d
from ..qdp.lattice import Lattice

FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


@dataclass(frozen=True)
class ConfigHeader:
    """NERSC-style metadata stored alongside the links."""

    dims: tuple[int, ...]
    plaquette: float
    link_trace: float
    trajectory: int
    checksum: int
    format_version: int = FORMAT_VERSION


def _checksum(links: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(links).tobytes())


def _link_trace(links: np.ndarray) -> float:
    """Mean Re tr U / 3 over all links — the NERSC header quantity."""
    return float(np.einsum("mnii->", links).real
                 / (links.shape[0] * links.shape[1] * 3))


def save_config(path, u: multi1d, trajectory: int = 0) -> ConfigHeader:
    """Write the configuration and its header; returns the header."""
    from ..qcd.gauge import plaquette

    lattice = u[0].lattice
    links = np.stack([f.to_numpy() for f in u])   # (nd, n, 3, 3)
    header = ConfigHeader(
        dims=lattice.dims,
        plaquette=plaquette(u, lattice),
        link_trace=_link_trace(links),
        trajectory=int(trajectory),
        checksum=_checksum(links),
    )
    # Atomic write: a job killed mid-save must never leave a truncated
    # file under the final name (the stream restarts from it).  Write
    # to a temp file in the same directory, fsync, then os.replace.
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(
                fh, links=links,
                header=np.frombuffer(
                    json.dumps({
                        "dims": list(header.dims),
                        "plaquette": header.plaquette,
                        "link_trace": header.link_trace,
                        "trajectory": header.trajectory,
                        "checksum": header.checksum,
                        "format_version": header.format_version,
                    }).encode(), dtype=np.uint8))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return header


class CheckpointManager:
    """Keep-last-N on-disk retention over :func:`save_config`.

    A production stream checkpoints every few trajectories and prunes
    old files; on restart it must tolerate a torn final write (the
    job died mid-save before the atomic rename, or the filesystem
    corrupted a block) by falling back to the newest *loadable*
    configuration instead of dying on the first bad one.
    """

    def __init__(self, directory, prefix: str = "cfg", keep: int = 3):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.prefix = prefix
        self.keep = keep

    def _path(self, trajectory: int) -> Path:
        return self.directory / f"{self.prefix}_{trajectory:06d}.npz"

    def paths(self) -> list[Path]:
        """Managed checkpoint files, oldest first."""
        return sorted(self.directory.glob(f"{self.prefix}_*.npz"))

    def save(self, u: multi1d, trajectory: int) -> ConfigHeader:
        """Checkpoint ``u`` and prune beyond the newest ``keep``."""
        header = save_config(self._path(trajectory), u, trajectory)
        existing = self.paths()
        for stale in existing[:max(0, len(existing) - self.keep)]:
            stale.unlink()
        return header

    def load_latest(self, context=None, precision: str = "f64"
                    ) -> tuple[multi1d, ConfigHeader, list[Path]]:
        """The newest loadable configuration.

        Tries newest-first; files that fail to load (truncated,
        checksum or plaquette mismatch) are *skipped and reported* —
        returned as the third element and announced with a warning —
        rather than aborting the restart.  Raises
        :class:`CheckpointError` only when nothing loads.
        """
        import warnings

        skipped: list[Path] = []
        for path in reversed(self.paths()):
            try:
                u, header = load_config(path, context=context,
                                        precision=precision)
            except CheckpointError as e:
                skipped.append(path)
                warnings.warn(f"skipping corrupt checkpoint: {e}",
                              RuntimeWarning, stacklevel=2)
                continue
            return u, header, skipped
        raise CheckpointError(
            f"no loadable checkpoint under {self.directory} "
            f"(prefix {self.prefix!r}; {len(skipped)} corrupt)")


def load_config(path, context=None, precision: str = "f64",
                validate: bool = True) -> tuple[multi1d, ConfigHeader]:
    """Read a configuration; validates checksum and plaquette."""
    path = Path(path)
    if path.suffix != ".npz" and not path.exists():
        path = path.with_suffix(path.suffix + ".npz")
    try:
        with np.load(path) as data:
            links = data["links"]
            meta = json.loads(bytes(data["header"].tobytes()).decode())
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as e:
        raise CheckpointError(
            f"{path}: unreadable or truncated checkpoint ({e})") from e
    if meta.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported format version {meta.get('format_version')}")
    header = ConfigHeader(
        dims=tuple(meta["dims"]), plaquette=meta["plaquette"],
        link_trace=meta["link_trace"], trajectory=meta["trajectory"],
        checksum=meta["checksum"])
    if validate and _checksum(links) != header.checksum:
        raise CheckpointError(f"{path}: checksum mismatch (corrupt file)")
    lattice = Lattice(header.dims)
    u = multi1d([latt_color_matrix(lattice, precision, context)
                 for _ in range(lattice.nd)])
    for mu, f in enumerate(u):
        f.from_numpy(links[mu])
    if validate:
        from ..qcd.gauge import plaquette

        recomputed = plaquette(u, lattice)
        if abs(recomputed - header.plaquette) > 1e-10:
            raise CheckpointError(
                f"{path}: plaquette mismatch — header "
                f"{header.plaquette:.12f}, recomputed {recomputed:.12f}")
    return u, header
