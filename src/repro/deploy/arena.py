"""Preallocated, liveness-reused buffer arena for compiled inference plans.

A compiled plan knows every intermediate array it will ever produce — shape,
dtype, the step that writes it and the last step that reads it.  The arena
turns that knowledge into a fixed set of byte buffers sized once at compile
time: each value is assigned a buffer for exactly its live range, and
buffers are recycled between values whose ranges do not overlap (classic
linear-scan register allocation, with bytes instead of registers).

The result: a plan forward performs **zero** large allocations — every
im2col column block, conv output and elementwise result lands in memory
that already exists — and the arena can report exactly how many bytes the
whole forward peaks at, which is what the streaming-conv path budgets
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class BufferRef:
    """Handle to one reserved region: which buffer, viewed how."""

    buffer: int
    shape: Tuple[int, ...]
    dtype: np.dtype

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * self.dtype.itemsize


@dataclass
class ArenaStats:
    """Size accounting of a finalized arena."""

    #: Bytes actually allocated (sum of buffer capacities) — the peak
    #: working-set the plan's intermediates ever occupy.
    peak_bytes: int = 0
    #: Bytes all reservations would occupy without any reuse (what the
    #: eager per-call-allocation path materializes over one forward).
    naive_bytes: int = 0
    buffers: int = 0
    reservations: int = 0

    @property
    def reuse_ratio(self) -> float:
        """naive / peak — how many times over each byte is recycled."""
        if self.peak_bytes == 0:
            return 1.0
        return self.naive_bytes / self.peak_bytes


class BufferArena:
    """Compile-time reservation + run-time views over preallocated memory.

    Usage is two-phase.  During planning, walk the steps in execution
    order calling :meth:`reserve` for each value born at the current step
    and :meth:`release` for each value whose last reader has run; the
    arena hands out :class:`BufferRef` handles, recycling capacity
    greedily (best-fit on byte size).  Then :meth:`finalize` materializes
    the buffers, after which :meth:`array` returns the concrete ndarray
    view for a handle.  Every array is a dense C-contiguous view from
    offset 0 of its buffer, so dtype alignment is inherited from the
    allocator.
    """

    def __init__(self):
        self._capacities: List[int] = []
        self._free: List[int] = []
        # Identity of the BufferRef currently owning each reserved buffer:
        # release() only honours the exact handle reserve() returned, so a
        # stale ref (whose buffer was recycled to a newer value in between)
        # can never push a live buffer back into the free pool.
        self._owners: Dict[int, BufferRef] = {}
        self._buffers: Optional[List[np.ndarray]] = None
        self._views: Dict[BufferRef, np.ndarray] = {}
        self._dedicated_bytes = 0
        self._shared: Dict[tuple, np.ndarray] = {}
        self.stats = ArenaStats()

    # ------------------------------------------------------------------ #
    # Planning phase
    # ------------------------------------------------------------------ #
    def reserve(self, shape: Tuple[int, ...], dtype) -> BufferRef:
        """Reserve a buffer for a value of the given shape/dtype."""
        if self._buffers is not None:
            raise RuntimeError("arena is finalized; no further reservations")
        ref_dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * ref_dtype.itemsize
        self.stats.naive_bytes += nbytes
        self.stats.reservations += 1
        # Best fit: the smallest free buffer that holds the request.
        best = -1
        for index in self._free:
            cap = self._capacities[index]
            if cap >= nbytes and (best < 0 or cap < self._capacities[best]):
                best = index
        if best >= 0:
            self._free.remove(best)
            ref = BufferRef(best, tuple(shape), ref_dtype)
        else:
            self._capacities.append(nbytes)
            ref = BufferRef(len(self._capacities) - 1, tuple(shape), ref_dtype)
        self._owners[ref.buffer] = ref
        return ref

    def release(self, ref: BufferRef) -> None:
        """Return ``ref``'s buffer to the free pool for later reservations.

        Only the exact :class:`BufferRef` object that reserved the buffer
        may release it: a double release raises, and so does releasing a
        stale ref whose buffer was re-reserved by a newer value in between
        (the old ``in self._free`` check missed that case, silently handing
        the live value's buffer to the free pool and aliasing two values).
        """
        if self._buffers is not None:
            raise RuntimeError("arena is finalized; no further releases")
        owner = self._owners.get(ref.buffer)
        if owner is None:
            raise ValueError(f"buffer {ref.buffer} released twice")
        if owner is not ref:
            raise ValueError(
                f"buffer {ref.buffer} was re-reserved after this ref released "
                f"it; releasing the stale ref would alias two live values")
        del self._owners[ref.buffer]
        self._free.append(ref.buffer)

    # ------------------------------------------------------------------ #
    # Execution phase
    # ------------------------------------------------------------------ #
    def finalize(self) -> "BufferArena":
        """Materialize every buffer; the arena becomes immutable."""
        if self._buffers is None:
            self._buffers = [np.empty(cap, dtype=np.uint8)
                             for cap in self._capacities]
            self.stats.peak_bytes = sum(self._capacities) + self._dedicated_bytes
            self.stats.buffers = len(self._capacities)
        return self

    def array(self, ref: BufferRef) -> np.ndarray:
        """The concrete ndarray view backing ``ref`` (cached per handle)."""
        if self._buffers is None:
            raise RuntimeError("arena not finalized; call finalize() first")
        view = self._views.get(ref)
        if view is None:
            raw = self._buffers[ref.buffer][:ref.nbytes]
            view = self._views[ref] = raw.view(ref.dtype).reshape(ref.shape)
        return view

    def zeros_array(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A dedicated zero-initialized array outside the reuse pool.

        Used for padded-input scratch: the border must *stay* zero across
        calls, so the buffer can never be recycled.  Counted in the stats
        as both naive and peak bytes (eager forwards allocate it per call
        via ``np.pad``).
        """
        if self._buffers is not None:
            raise RuntimeError("arena is finalized; no further reservations")
        array = np.zeros(shape, dtype=dtype)
        self.stats.naive_bytes += array.nbytes
        self.stats.reservations += 1
        self._dedicated_bytes += array.nbytes
        return array

    def shared_zeros_array(self, shape: Tuple[int, ...], dtype,
                           interior: Hashable) -> np.ndarray:
        """:meth:`zeros_array`, one per ``(shape, dtype, interior)``.

        For zero-bordered scratch whose every user rewrites the same
        ``interior`` (e.g. the padding that places it) before reading: no
        user writes the border, so one buffer serves them all.  Each
        request counts as naive bytes; the buffer counts once as peak.
        """
        key = (tuple(shape), np.dtype(dtype), interior)
        array = self._shared.get(key)
        if array is None:
            array = self._shared[key] = self.zeros_array(shape, dtype)
        else:
            self.stats.naive_bytes += array.nbytes
            self.stats.reservations += 1
        return array
