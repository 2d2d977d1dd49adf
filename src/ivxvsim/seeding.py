"""Named random streams derived from one master seed.

Every random choice in a run is read from a `Stream`: SHAKE-256 (FIPS
202) over a domain tag, the master seed, a component label and an
index.  Components cannot perturb each other's streams, and a
transcript is a pure function of its configuration, of FIPS 202 and of
this module's cut of bytes into values.
"""

from __future__ import annotations

import hashlib

from .groups import small_scalars

_DOMAIN = b"ivxvsim/seed-v2"

# Bytes per counter-mode block: the SHAKE-256 rate, so that for a name of
# under 100 bytes one Keccak permutation absorbs it with the counter and
# squeezes the block.
_BLOCK = 136

# Extra bits a large modulus is drawn with before reduction: the bias of
# the result is below 2^-64 (FIPS 186-4, Appendix B.1.1).
_EXTRA_BITS = 64


class Stream:
    """The byte stream of one (seed, label, index), cut into values.

    Block i is the first `_BLOCK` bytes of SHAKE-256 over
    "<domain>|<seed>|<label>|<index>|" and then i, 8 bytes big-endian;
    the stream is the blocks in order.  Each draw reads the bytes after
    the last one read, so no read hashes again what an earlier one did."""

    def __init__(self, seed: int, label: str, index: int = 0):
        self._prefix = hashlib.shake_256(b"%b|%d|%b|%d|" % (_DOMAIN, seed, label.encode(), index))
        self._blocks = 0
        self._buffer = b""

    def _read(self, size: int) -> bytes:
        """The next `size` bytes of the stream."""
        buffer = self._buffer
        missing = size - len(buffer)
        if missing > 0:
            first = self._blocks
            self._blocks += -(-missing // _BLOCK)
            more = []
            for i in range(first, self._blocks):
                block = self._prefix.copy()
                block.update(i.to_bytes(8, "big"))
                more.append(block.digest(_BLOCK))
            buffer += b"".join(more)
        self._buffer = buffer[size:]
        return buffer[:size]

    def scalars(self, q: int, count: int) -> list[int]:
        """`count` uniform integers in [0, q).  For q < 2^8 each is one
        byte cut by `groups.small_scalars`, with exact rejection, one
        byte read per value still missing; otherwise each reads |q| + 64
        bits, big-endian, reduced mod q, with bias below 2^-64.  Either
        way the call reads and returns what `count` calls of `below(q)`
        would, so a bulk draw may be cut into smaller ones."""
        if q < 1:
            raise ValueError("q must be positive")
        if q < 1 << 8:
            out = b""
            while len(out) < count:
                out += small_scalars(q, self._read(count - len(out)))
            return list(out)
        width = (q.bit_length() + _EXTRA_BITS + 7) // 8
        data = self._read(count * width)
        return [int.from_bytes(data[i : i + width], "big") % q
                for i in range(0, count * width, width)]

    def below(self, n: int) -> int:
        """One uniform integer in [0, n), as `scalars` draws it."""
        return self.scalars(n, 1)[0]

    def bits(self, k: int) -> int:
        """A uniform integer in [0, 2^k): the top k bits of ceil(k / 8)
        bytes, big-endian."""
        size = (k + 7) // 8
        return int.from_bytes(self._read(size), "big") >> (8 * size - k)

    def unit(self) -> float:
        """A uniform float in [0, 1): 53 bits over 2^53."""
        return self.bits(53) / (1 << 53)

    def shuffle(self, items: list) -> None:
        """Permute items in place, uniformly: Fisher-Yates over `below`."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def rng_for(seed: int, label: str, index: int = 0) -> Stream:
    return Stream(seed, label, index)


def derive_seed(seed: int, label: str, index: int = 0) -> int:
    """A 64-bit seed for a sub-run, the first 8 bytes of its stream."""
    return rng_for(seed, label, index).bits(64)
