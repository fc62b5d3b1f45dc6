"""Byte-addressable shared address space with registered buffers.

Models the coherent SoC memory of the paper's evaluation node.  Buffers
are NumPy-backed, carry a base *virtual address* in a per-node address
space, and can be *registered* for NIC access (the RDMA analogue of memory
registration / pinning).  The NIC refuses DMA to unregistered ranges,
which is exactly the failure mode a real RDMA stack gives you.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["AddressSpace", "Buffer", "RegistrationError"]

_PAGE = 4096


class RegistrationError(RuntimeError):
    """DMA attempted on memory not registered with the NIC."""


class Buffer:
    """A contiguous allocation inside an :class:`AddressSpace`.

    Exposes the backing bytes both as raw ``uint8`` and as typed NumPy
    views.  All remote (NIC) accesses go through :meth:`read_bytes` /
    :meth:`write_bytes` so the address-space bookkeeping stays coherent.
    """

    def __init__(self, space: "AddressSpace", base: int, nbytes: int, name: str = ""):
        self.space = space
        self.base = base
        self.nbytes = nbytes
        self.name = name or f"buf@{base:#x}"
        self._data = np.zeros(nbytes, dtype=np.uint8)
        self.registered = False

    # ---------------------------------------------------------------- typing
    @property
    def data(self) -> np.ndarray:
        """Raw byte view of the buffer."""
        return self._data

    def view(self, dtype=np.uint8, count: Optional[int] = None, offset: int = 0) -> np.ndarray:
        """A typed view into the buffer (no copy)."""
        itemsize = np.dtype(dtype).itemsize
        avail = (self.nbytes - offset) // itemsize
        n = avail if count is None else count
        if n < 0 or offset < 0 or offset + n * itemsize > self.nbytes:
            raise IndexError(
                f"view [{offset}, {offset + (n or 0) * itemsize}) outside buffer "
                f"{self.name!r} of {self.nbytes} bytes"
            )
        return self._data[offset:offset + n * itemsize].view(dtype)

    # ------------------------------------------------------------ raw access
    def read_bytes(self, offset: int, nbytes: int) -> bytes:
        self._check_range(offset, nbytes)
        return self._data[offset:offset + nbytes].tobytes()

    def write_bytes(self, offset: int, payload: bytes) -> None:
        self._check_range(offset, len(payload))
        self._data[offset:offset + len(payload)] = np.frombuffer(payload, dtype=np.uint8)

    def _check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise IndexError(
                f"access [{offset}, {offset + nbytes}) outside buffer "
                f"{self.name!r} of {self.nbytes} bytes"
            )

    # ------------------------------------------------------------- addresses
    def addr(self, offset: int = 0) -> int:
        """Virtual address of ``offset`` within this buffer."""
        if offset < 0 or offset > self.nbytes:
            raise IndexError(f"offset {offset} outside buffer {self.name!r}")
        return self.base + offset

    def release(self) -> None:
        """Drop the payload; any later access to it raises."""
        self._data = None

    def contains(self, addr: int, nbytes: int = 1) -> bool:
        return self.base <= addr and addr + nbytes <= self.base + self.nbytes

    def __len__(self) -> int:
        return self.nbytes

    def __repr__(self) -> str:  # pragma: no cover
        reg = " registered" if self.registered else ""
        return f"<Buffer {self.name!r} base={self.base:#x} size={self.nbytes}{reg}>"


class AddressSpace:
    """A per-node virtual address space.

    Allocation is a simple page-aligned bump allocator -- fragmentation is
    irrelevant to the timing model, but overlap/containment queries must be
    exact because the NIC validates every DMA against them.
    """

    def __init__(self, name: str = "node", base: int = 0x1000_0000):
        self.name = name
        self._next = base
        self._buffers: Dict[int, Buffer] = {}
        #: Bases of the live buffers, ascending (the bump allocator hands
        #: them out in order), for :meth:`resolve`'s bisection.
        self._bases: List[int] = []

    def alloc(self, nbytes: int, name: str = "") -> Buffer:
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        base = self._next
        # Page-align the next allocation; guard page between buffers makes
        # out-of-bounds DMA deterministic instead of silently hitting a
        # neighbouring buffer.
        span = (nbytes + _PAGE - 1) // _PAGE * _PAGE + _PAGE
        self._next += span
        buf = Buffer(self, base, nbytes, name=name)
        self._buffers[base] = buf
        self._bases.append(base)
        return buf

    def free(self, buf: Buffer) -> None:
        if self._buffers.pop(buf.base, None) is None:
            raise ValueError(f"double free of {buf!r}")
        del self._bases[bisect_left(self._bases, buf.base)]
        buf.registered = False

    # ---------------------------------------------------------- registration
    def register(self, buf: Buffer) -> None:
        """Pin ``buf`` for NIC access."""
        if buf.space is not self:
            raise RegistrationError(f"{buf!r} belongs to a different address space")
        if buf.base not in self._buffers:
            raise RegistrationError(f"{buf!r} was freed")
        buf.registered = True

    def deregister(self, buf: Buffer) -> None:
        buf.registered = False

    # --------------------------------------------------------------- lookups
    def resolve(self, addr: int, nbytes: int = 1) -> Tuple[Buffer, int]:
        """Map a virtual range to (buffer, offset); raises if unmapped.

        Buffers do not overlap, so the only candidate is the one with the
        highest base at or below ``addr``."""
        i = bisect_right(self._bases, addr)
        if i:
            buf = self._buffers[self._bases[i - 1]]
            if buf.contains(addr, nbytes):
                return buf, addr - buf.base
        raise IndexError(f"address {addr:#x} (+{nbytes}) unmapped in space {self.name!r}")

    def dma_read(self, addr: int, nbytes: int) -> bytes:
        """NIC-side read; enforces registration."""
        buf, off = self.resolve(addr, nbytes)
        return self.dma_read_at(buf, off, nbytes)

    def dma_write(self, addr: int, payload: bytes) -> None:
        """NIC-side write; enforces registration."""
        buf, off = self.resolve(addr, len(payload))
        self.dma_write_at(buf, off, payload)

    @staticmethod
    def dma_read_at(buf: Buffer, off: int, nbytes: int) -> bytes:
        """:meth:`dma_read` of a range already resolved to ``(buf, off)``."""
        if not buf.registered:
            raise RegistrationError(f"DMA read from unregistered buffer {buf.name!r}")
        return buf.read_bytes(off, nbytes)

    @staticmethod
    def dma_write_at(buf: Buffer, off: int, payload: bytes) -> None:
        """:meth:`dma_write` to a range already resolved to ``(buf, off)``."""
        if not buf.registered:
            raise RegistrationError(f"DMA write to unregistered buffer {buf.name!r}")
        buf.write_bytes(off, payload)

    def buffers(self) -> Iterator[Buffer]:
        return iter(self._buffers.values())
