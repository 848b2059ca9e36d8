"""PLFS write path: append-only data logs plus index records.

Each writer owns a private data log and index log inside a hashed subdir
of the container.  A logical write at any offset becomes a *physical
append* (§II: PLFS "transforms random I/O into sequential"), plus one
in-memory index record stamped with the current time; the index log is
written out at close.  Decoupled files mean no lock traffic and no
read-modify-write on the backing store — that is the entire write-side
trick, and the simulated PFS rewards it exactly as the real ones do.
"""

from __future__ import annotations

from typing import Generator

from ..analysis.sanitize import raw_snapshot, tracked
from ..errors import BadFileHandle, FileNotFound, InvalidArgument
from ..pfs.data import DataSpec
from ..pfs.volume import Client, FileHandle
from .container import ContainerLayout, meta_dropping_name, openhost_name
from .index import WriterIndex

__all__ = ["PlfsWriteHandle", "open_write_handle"]


def _host_registry(home) -> dict:
    """Per-volume registry of live writers per (container, host).

    Openhost and metadata droppings are per *host* in PLFS (Fig. 1): the
    first writer on a node creates the openhost mark, the last closer
    removes it and drops the host's metadata.  The registry holds
    ``(path, node_id) -> [refcount, max_eof, total_records]``.
    """
    reg = getattr(home, "_plfs_host_refs", None)
    if reg is None:
        # Shared across every writer/closer process on the volume: the
        # canonical yield-point race surface (see the PR 2 last-closer
        # fix below), so it registers with the sanitizer when one is on.
        reg = home._plfs_host_refs = tracked(
            home.env, {}, f"plfs-host-refs[{home.name}]")
    return reg


def host_refs_snapshot(home) -> dict:
    """Plain ``{(path, node_id): (refcount, max_eof, total_records)}`` copy
    of a volume's host registry.

    Oracle accessor for the model checker: reads the raw container behind
    the tracked proxy, so invariant evaluation never perturbs the
    sanitizer's read vectors or the explorer's access footprints.
    """
    reg = getattr(home, "_plfs_host_refs", None)
    if reg is None:
        return {}
    return {k: tuple(v) for k, v in sorted(raw_snapshot(reg).items())}


def open_write_handle(layout: ContainerLayout, client: Client) -> Generator:
    """Per-writer open: ensure the subdir, create data+index logs, mark host.

    The container skeleton must already exist (see
    :meth:`PlfsMount.open_write` / :meth:`ContainerLayout.ensure_skeleton`).
    Returns a :class:`PlfsWriteHandle`.  Transient faults are retried by
    the backing volumes, one metadata op at a time (see
    :mod:`repro.pfs.volume`).
    """
    node_id = client.node.id
    writer_id = client.client_id
    s = layout.subdir_for_writer(node_id)
    yield from layout.ensure_subdir(client, s)
    vol = layout.subdir_volume(s)
    # Dropping names are per-open, like real PLFS's host.pid.timestamp: a
    # client re-opening the same logical file (append after close) gets a
    # fresh dropping pair rather than clobbering its earlier logs.
    while vol.ns.exists(layout.data_log_path(node_id, writer_id)):
        writer_id += 1_000_003
    data_path = layout.data_log_path(node_id, writer_id)
    index_path = layout.index_log_path(node_id, writer_id)
    data_fh = yield from vol.open(client, data_path, "w", create=True,
                                  truncate=True)
    index_fh = yield from vol.open(client, index_path, "w", create=True,
                                   truncate=True)
    # Openhosts dropping marks this *host* as live (first writer creates it).
    home = layout.home_volume
    reg = _host_registry(home)
    key = (layout.path, node_id)
    entry = reg.setdefault(key, [0, 0, 0])
    entry[0] += 1
    if entry[0] == 1:
        oh_path = f"{layout.openhosts_path}/{openhost_name(node_id)}"
        oh = yield from home.open(client, oh_path, "w", create=True)
        yield from oh.close()
    return PlfsWriteHandle(layout, client, data_fh, index_fh,
                           writer_id=writer_id)


class PlfsWriteHandle:
    """One writer's open-for-write state on a PLFS logical file."""

    def __init__(self, layout: ContainerLayout, client: Client,
                 data_fh: FileHandle, index_fh: FileHandle,
                 writer_id: int = None):
        self.layout = layout
        self.client = client
        self.data_fh = data_fh
        self.index_fh = index_fh
        if writer_id is None:
            writer_id = client.client_id
        self.index = WriterIndex(writer_id=writer_id, node_id=client.node.id,
                                 merge=layout.cfg.index_merge)
        self.closed = False
        self.bytes_written = 0
        self._spilled_records = 0

    @property
    def env(self):
        return self.data_fh.volume.env

    def write(self, offset: int, spec: DataSpec) -> Generator:
        """Logical write: physical append to the data log + index record."""
        if self.closed:
            raise BadFileHandle(self.layout.path)
        if offset < 0:
            raise InvalidArgument(self.layout.path, f"negative offset {offset}")
        if spec.length == 0:
            return
        # A retried append may leave an unindexed first copy in the log
        # (dead space); the index records only the acknowledged copy, so
        # logical content is unchanged — retransmission semantics.
        physical = yield from self.data_fh.append(spec)
        self.index.record(offset, spec.length, physical, stamp=self.env.now)
        self.bytes_written += spec.length
        spill = self.layout.cfg.index_spill_records
        if spill and len(self.index) - self._spilled_records >= spill:
            yield from self._spill_index()

    def _spill_index(self) -> Generator:
        """Append buffered index records to the index log (bounds crash loss)."""
        hi = len(self.index)
        if hi > self._spilled_records:
            chunk = self.index.serialize_range(self._spilled_records, hi)
            yield from self.index_fh.append(chunk)
            self._spilled_records = hi
            self.index.seal()

    def abandon(self) -> None:
        """Simulate this writer crashing: no close, no index spill, no
        metadata dropping, openhost mark left behind.  Data appended since
        the last spill is unrecoverable — exactly PLFS's failure semantics.
        The backing file handles are torn down without charging time (the
        node is gone)."""
        if self.closed:
            raise BadFileHandle(self.layout.path)
        self.closed = True
        self.data_fh.closed = True
        self.index_fh.closed = True
        self.data_fh.inode.writers -= 1
        self.index_fh.inode.writers -= 1

    @property
    def eof(self) -> int:
        """This writer's view of the logical EOF (max extent it wrote)."""
        return self.index.journal.size

    def close(self) -> Generator:
        """Spill the index log, drop metadata, release the openhost mark.

        Index-Flatten aggregation happens *above* this call (it needs the
        communicator); see :meth:`repro.plfs.api.PlfsMount.close_write`.
        """
        if self.closed:
            raise BadFileHandle(self.layout.path)
        yield from self._spill_index()
        yield from self.index_fh.close()
        yield from self.data_fh.close()
        yield from self._drop_metadata()
        self.closed = True

    def _drop_metadata(self) -> Generator:
        """Host-level close bookkeeping: metadata dropping + openhost clear
        when this is the host's last live writer."""
        home = self.layout.home_volume
        client = self.client
        node_id = client.node.id
        reg = _host_registry(home)
        key = (self.layout.path, node_id)
        entry = reg[key]
        entry[0] -= 1
        entry[1] = max(entry[1], self.eof)
        entry[2] += len(self.index)
        if entry[0] != 0:
            return
        # Last live writer on this host *right now*: retire the registry
        # entry atomically with the zero check (no yields in between), so a
        # writer re-opening while this close's metadata ops are in flight
        # starts a fresh host generation instead of racing this one's
        # refcount.  The dropping name alone carries eof/records.
        del reg[key]
        name = meta_dropping_name(entry[1], entry[2], node_id, 0)
        meta_path = f"{self.layout.meta_path}/{name}"
        meta = yield from home.open(client, meta_path, "w", create=True)
        yield from meta.close()
        if key in reg:
            # A new generation opened while the dropping was being written:
            # the host is live again and its openhost mark must survive.
            return
        oh_path = f"{self.layout.openhosts_path}/{openhost_name(node_id)}"
        try:
            yield from home.unlink(client, oh_path)
        except FileNotFound:
            pass  # a racing generation's closer already cleared the mark
