"""The filesystem seam of the durability layer.

Every byte the WAL, the snapshotter, the cluster and storage layouts and
``save_index`` put on disk goes through a :class:`FileSystem` instance.
Production uses the default passthrough; the crash-consistency suite
substitutes :class:`repro.service.faults.FaultyFileSystem` to crash, tear
and corrupt writes at deterministic points without monkeypatching the os
module.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Union

PathLike = Union[str, Path]


class FileSystem:
    """Passthrough to the real filesystem (the production implementation)."""

    def open(self, path: PathLike, mode: str) -> BinaryIO:
        return open(path, mode)

    def fsync(self, handle: BinaryIO) -> None:
        handle.flush()
        os.fsync(handle.fileno())

    def replace(self, src: PathLike, dst: PathLike) -> None:
        os.replace(src, dst)

    def remove(self, path: PathLike) -> None:
        os.unlink(path)

    def truncate(self, path: PathLike, size: int) -> None:
        with open(path, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())

    def atomic_write(self, path: PathLike, payload: bytes) -> None:
        """Durably replace ``path`` with ``payload``.

        ``write <path>.tmp → fsync → rename → fsync dir``: a crash at any
        boundary leaves the old file or the new one under ``path`` (at
        worst beside a ``.tmp`` sibling the recovery sweeps remove), never
        a torn mix.  Built only from this seam's own primitives, so a
        substituted :class:`FileSystem` injects its faults here too.
        """
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with self.open(tmp, "wb") as handle:
            handle.write(payload)
            self.fsync(handle)
        self.replace(tmp, path)
        self.fsync_dir(path.parent)

    def fsync_dir(self, path: PathLike) -> None:
        """Durably record directory entries (created/renamed files).

        Best effort: some platforms refuse to fsync a directory fd; losing
        the entry fsync degrades durability of the *rename*, never
        integrity of file contents.
        """
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)


#: Shared default instance — stateless, safe to reuse everywhere.
REAL_FS = FileSystem()
