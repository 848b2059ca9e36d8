"""ADIO: the abstract device interface under MPI-IO (Thakur et al. [13]).

The paper's third PLFS interface is an ADIO driver inside MPI-IO (§II):
rerouting MPI-IO calls into the PLFS library while inheriting the job's
communicator — which is what makes the collective index optimizations
possible.  We mirror that structure: :class:`MPIFile` (in
:mod:`repro.mpiio.file`) speaks to one of two drivers:

* :class:`UfsDriver` — pass-through to a backing volume (direct parallel
  file system access, the paper's "without PLFS" baseline);
* :class:`PlfsDriver` — routes through :class:`repro.plfs.PlfsMount`.
"""

from __future__ import annotations

from typing import Generator

from ..errors import InvalidArgument, UnsupportedOperation
from ..pfs.data import DataSpec
from ..pfs.volume import Client, Volume
from ..plfs.api import PlfsMount
from ..plfs.reader import PlfsReadHandle
from ..plfs.writer import PlfsWriteHandle

__all__ = ["ADIODriver", "UfsDriver", "PlfsDriver"]


class ADIODriver:
    """Driver interface: open/write_at/read_at/size/close, all generators."""

    name = "abstract"

    def open(self, client: Client, comm, path: str, mode: str) -> Generator:
        """Open *path*; collective when *comm* is given. Returns a handle."""
        raise NotImplementedError

    def write_at(self, handle, offset: int, spec: DataSpec) -> Generator:
        """Write *spec* at *offset* through the driver's handle."""
        raise NotImplementedError

    def read_at(self, handle, offset: int, length: int) -> Generator:
        """Read a byte range; returns a DataView."""
        raise NotImplementedError

    def size(self, handle) -> int:
        """Current (driver-specific) size visible through the handle."""
        raise NotImplementedError

    def close(self, handle, comm) -> Generator:
        """Close the handle (collective for PLFS write handles)."""
        raise NotImplementedError


class UfsDriver(ADIODriver):
    """Direct access to the underlying parallel file system."""

    name = "ufs"

    def __init__(self, volume: Volume):
        self.volume = volume

    def open(self, client: Client, comm, path: str, mode: str) -> Generator:
        """Open on the backing volume; rank 0 creates/truncates shared files."""
        if mode not in ("r", "w", "rw"):
            raise InvalidArgument(path, f"bad mode {mode!r}")
        creating = "w" in mode
        if comm is not None and comm.size > 1 and creating:
            # Rank 0 creates (and truncates); everyone else opens after.
            # Retry lives in the volume, under each rank's own open: the
            # bcast is never retried, since a retried collective would
            # desynchronize the communicator.
            if comm.rank == 0:
                fh = yield from self.volume.open(client, path, mode, create=True,
                                                 truncate=True)
                yield from comm.bcast(None, nbytes=8, root=0)
            else:
                yield from comm.bcast(None, nbytes=8, root=0)
                fh = yield from self.volume.open(client, path, mode)
        else:
            fh = yield from self.volume.open(client, path, mode, create=creating,
                                             truncate=creating)
        return fh

    def write_at(self, handle, offset: int, spec: DataSpec) -> Generator:
        """Pass-through pwrite."""
        yield from handle.write(offset, spec)

    def read_at(self, handle, offset: int, length: int) -> Generator:
        """Pass-through pread."""
        view = yield from handle.read(offset, length)
        return view

    def size(self, handle) -> int:
        """Backing file size."""
        return handle.size()

    def close(self, handle, comm) -> Generator:
        """Plain close (independent)."""
        yield from handle.close()


class PlfsDriver(ADIODriver):
    """MPI-IO routed through the PLFS middleware (the paper's ADIO layer)."""

    name = "plfs"

    def __init__(self, mount: PlfsMount):
        self.mount = mount

    def open(self, client: Client, comm, path: str, mode: str) -> Generator:
        """Route to PLFS open_write/open_read; rejects read-write mode."""
        if mode == "rw":
            raise UnsupportedOperation(
                path, "PLFS does not support read-write opens of shared files")
        if mode == "w":
            handle = yield from self.mount.open_write(client, path, comm)
        else:
            handle = yield from self.mount.open_read(client, path, comm)
        return handle

    def write_at(self, handle, offset: int, spec: DataSpec) -> Generator:
        """Logical write -> log append + index record."""
        if not isinstance(handle, PlfsWriteHandle):
            raise UnsupportedOperation(message="write on a read-only PLFS handle")
        yield from handle.write(offset, spec)

    def read_at(self, handle, offset: int, length: int) -> Generator:
        """Logical read resolved through the global index."""
        if not isinstance(handle, PlfsReadHandle):
            raise UnsupportedOperation(message="read on a write-only PLFS handle")
        view = yield from handle.read(offset, length)
        return view

    def size(self, handle) -> int:
        """Logical size (reader: global index; writer: own EOF)."""
        if isinstance(handle, PlfsReadHandle):
            return handle.size
        return handle.eof

    def close(self, handle, comm) -> Generator:
        """Close; write handles run the configured flatten collectively."""
        if isinstance(handle, PlfsWriteHandle):
            yield from self.mount.close_write(handle, comm)
        else:
            yield from handle.close()
