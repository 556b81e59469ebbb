"""Shared-memory column buffers for the process-pool backend.

The process backend of :class:`~repro.sqlengine.mpp.ProcessSegmentPool`
never pickles column data.  Instead the driver copies each kernel input
once into a POSIX shared-memory block and ships workers a tiny
:class:`ShmArray` descriptor — ``(block name, dtype, shape)`` — which the
worker rehydrates into a zero-copy ``np.ndarray`` view over the same
physical pages.

Ownership and lifecycle are explicit and driver-side:

* Blocks are created lazily on first parallel use by a
  :class:`ShmRegistry` (one per process pool, owned by its Database).
* Stored-column exports are **adopted**: the column's ``values`` array is
  swapped for the shared view (bit-identical data), so the original heap
  copy is freed and later statements re-export the same column for free.
* A block is unlinked (name removed from ``/dev/shm``) as soon as its
  keyed array dies, on :meth:`ShmRegistry.release_all` (wired to
  ``Database.close()``), or by the module's ``atexit`` sweep if the
  interpreter exits mid-query.  On POSIX an unlink leaves existing
  mappings valid, so live views — including adopted columns still
  referenced by open tables — keep working; their mapping is closed by a
  weakref callback when the view itself dies.
* Workers cache attachments in a small LRU keyed by block name and
  unregister each attachment from ``multiprocessing.resource_tracker``
  (the attach would otherwise double-register the block and a worker's
  tracker could unlink it out from under the driver on worker exit).

The registry degrades, never fails: text (object-dtype) payloads and
allocation errors return ``None`` and the caller
(:meth:`ProcessSegmentPool.share <repro.sqlengine.mpp.ProcessSegmentPool.share>`)
has the same kernel run on the pool's threads.
"""

from __future__ import annotations

import atexit
import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, Optional

import numpy as np

__all__ = ["ShmArray", "ShmRegistry", "attach_array", "view_array"]


@dataclass(frozen=True)
class ShmArray:
    """Picklable descriptor of an ndarray living in a shared-memory block."""

    name: str
    dtype: str
    shape: tuple[int, ...]


class _Export:
    """Driver-side record of one exported block."""

    __slots__ = ("block", "descriptor", "ref", "unlinked")

    def __init__(self, block: shared_memory.SharedMemory, descriptor: ShmArray):
        self.block = block
        self.descriptor = descriptor
        self.ref: Optional[weakref.ref] = None
        self.unlinked = False


class ShmRegistry:
    """Owns every shared-memory block exported by one process pool.

    Exports are cached on the identity of the keyed array (the adopted
    view for columns, the source array otherwise) via weakrefs, so a warm
    loop re-exporting the same stored column or cached index costs a
    dictionary lookup, and a block is reclaimed the moment nothing can
    reach it.
    """

    def __init__(self) -> None:
        # RLock: weakref callbacks can fire from allocations made while
        # the lock is already held by this thread.
        self._lock = threading.RLock()
        self._exports: dict[int, _Export] = {}
        self._created: set[str] = set()
        self._owner_pid = os.getpid()
        self.bytes_exported = 0
        #: Optional hook called with each export's byte count (wired to
        #: ``EngineStats.bump("shm_bytes_exported", ...)``).
        self.on_export: Optional[Callable[[int], None]] = None
        _registries.add(self)

    # -- driver-side export ------------------------------------------------

    def export_column(self, column) -> Optional[ShmArray]:
        """Export a Column's storage (its values, or the codes of an
        encoded column), adopting the shared view in its place.

        Returns the descriptor, or ``None`` for non-shareable payloads
        (text) — the caller then runs the kernel on threads.  The
        column's array is replaced by the bit-identical shared
        view, so the heap copy is freed and the next statement touching
        the same column re-exports it for free.
        """
        with self._lock:
            values = column.storage
            entry = self._live_entry(values)
            if entry is not None:
                return entry.descriptor
            made = self._create_export(values)
            if made is None:
                return None
            entry, view = made
            self._key_entry(entry, view)
            column.adopt_storage(view)
            return entry.descriptor

    def export_array(self, array: np.ndarray) -> Optional[ShmArray]:
        """Export a raw array (index orders, slot tables, aggregate args).

        The block lives exactly as long as the source array does; repeat
        exports of the same array object are free.
        """
        with self._lock:
            entry = self._live_entry(array)
            if entry is not None:
                return entry.descriptor
            made = self._create_export(array)
            if made is None:
                return None
            entry, _view = made
            self._key_entry(entry, array)
            return entry.descriptor

    def _live_entry(self, array: np.ndarray) -> Optional[_Export]:
        entry = self._exports.get(id(array))
        if entry is None or entry.unlinked:
            return None
        if entry.ref is None or entry.ref() is not array:
            return None
        return entry

    def _create_export(
        self, array: np.ndarray
    ) -> Optional[tuple[_Export, np.ndarray]]:
        if array.dtype == object:
            return None
        nbytes = max(int(array.nbytes), 1)
        try:
            block = shared_memory.SharedMemory(create=True, size=nbytes)
        except (OSError, ValueError):
            return None
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
        if array.size:
            view[...] = array
        descriptor = ShmArray(block.name, array.dtype.str, tuple(array.shape))
        entry = _Export(block, descriptor)
        self._created.add(block.name)
        _owned_names.add(block.name)
        self.bytes_exported += int(array.nbytes)
        hook = self.on_export
        if hook is not None:
            hook(int(array.nbytes))
        return entry, view

    def _key_entry(self, entry: _Export, key: np.ndarray) -> None:
        key_id = id(key)
        entry.ref = weakref.ref(key, lambda _ref: self._drop(key_id))
        self._exports[key_id] = entry

    def _drop(self, key_id: int) -> None:
        """Weakref callback: the keyed array died — reclaim its block."""
        try:
            with self._lock:
                entry = self._exports.get(key_id)
                if entry is None:
                    return
                if entry.ref is not None and entry.ref() is not None:
                    # The slot was re-keyed to a live array after a
                    # release_all; the stale block is gc-reclaimed.
                    return
                del self._exports[key_id]
            try:
                entry.block.close()
            except BufferError:
                pass
            if not entry.unlinked:
                entry.unlinked = True
                _owned_names.discard(entry.descriptor.name)
                try:
                    entry.block.unlink()
                except FileNotFoundError:
                    pass
        except Exception:
            # Callbacks may fire during interpreter teardown.
            pass

    # -- lifecycle ---------------------------------------------------------

    def release_all(self) -> None:
        """Unlink every live block (names vanish from ``/dev/shm``).

        Mappings of still-referenced views stay valid (POSIX unlink
        semantics) and are closed when the views die; the registry stays
        usable — a later parallel statement simply re-exports.
        """
        with self._lock:
            entries = list(self._exports.values())
        for entry in entries:
            if entry.unlinked:
                continue
            entry.unlinked = True
            _owned_names.discard(entry.descriptor.name)
            try:
                entry.block.unlink()
            except FileNotFoundError:
                pass

    def live_block_count(self) -> int:
        """Blocks created and not yet unlinked (test/diagnostic hook)."""
        with self._lock:
            return sum(1 for e in self._exports.values() if not e.unlinked)

    def created_names(self) -> set[str]:
        """Every block name this registry ever created (for leak asserts)."""
        with self._lock:
            return set(self._created)


#: Live registries swept at interpreter exit so a run abandoned mid-query
#: leaves no ``/dev/shm`` segments behind.  Weak so registries die with
#: their pools; the pid guard keeps forked workers (which inherit this
#: module state but exit via ``os._exit``) from ever unlinking driver
#: blocks should an atexit pass run in one.
_registries: "weakref.WeakSet[ShmRegistry]" = weakref.WeakSet()


def _sweep_at_exit() -> None:
    for registry in list(_registries):
        if registry._owner_pid == os.getpid():
            try:
                registry.release_all()
            except Exception:
                pass


atexit.register(_sweep_at_exit)


# -- worker-side attach ----------------------------------------------------

#: Per-process LRU of attached blocks.  Worker tasks of a warm loop hit
#: the same handful of blocks repeatedly; keeping the mapping open makes
#: every attach after the first free.  Single-threaded per worker process,
#: so no lock.
_ATTACHED: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()
_ATTACH_CAP = 64

#: Names created by a registry in this process (kept for the rare
#: driver-side inline attach, which must not strip the driver's own
#: crash-cleanup registration).
_owned_names: set[str] = set()

#: Pid that imported this module.  A *forked* worker inherits the module
#: (pids differ) and shares the driver's resource tracker: its attach is
#: an idempotent re-register there and must NOT be unregistered — that
#: would strip the driver's crash-cleanup entry and make the driver's
#: eventual unlink a double-unregister.  A *spawned* worker imports fresh
#: (pids match, private tracker) and must unregister, or its tracker
#: unlinks the driver's blocks when the worker exits (bpo-38119).
_MODULE_PID = os.getpid()


def _untrack(block: shared_memory.SharedMemory) -> None:
    """Drop the attach-side resource-tracker registration when — and only
    when — this process owns a private tracker (see ``_MODULE_PID``)."""
    if block.name in _owned_names or os.getpid() != _MODULE_PID:
        return
    try:
        resource_tracker.unregister(block._name, "shared_memory")
    except Exception:
        pass


def attach_array(descriptor: ShmArray) -> np.ndarray:
    """Rehydrate a descriptor into a zero-copy view (worker side)."""
    block = _ATTACHED.get(descriptor.name)
    if block is None:
        block = shared_memory.SharedMemory(name=descriptor.name)
        _untrack(block)
        _ATTACHED[descriptor.name] = block
        while len(_ATTACHED) > _ATTACH_CAP:
            _name, old = _ATTACHED.popitem(last=False)
            try:
                old.close()
            except BufferError:
                pass  # a live view from this very task still reads it
    else:
        _ATTACHED.move_to_end(descriptor.name)
    return np.ndarray(
        descriptor.shape, dtype=np.dtype(descriptor.dtype), buffer=block.buf
    )


def view_array(array):
    """A kernel input as an ndarray: the driver's own array on a thread,
    a zero-copy attachment of its shared block in a worker process
    (``None``, an absent optional input, passes through)."""
    return attach_array(array) if isinstance(array, ShmArray) else array
