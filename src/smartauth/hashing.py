"""Digest arithmetic, unambiguous input framing, and counted hashing.

Every value the protocol computes (hashes, nonces, their XORs) is a
``Digest``, made only here: a ``bytes`` that adds width-checked XOR.
Multi-part hash inputs are framed with a 4-byte big-endian length prefix
per part before hashing, so two different part lists can never collide by
concatenation (``h(a, b)`` and ``h(ab)`` see different input bytes).  The
framing lives only in ``encode_parts``.  Toy digest widths (1 and 2 bytes)
exist only so oracle tests can enumerate the full value space.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from hashlib import sha256 as _sha256

SALT_SIZE = 16
MAX_PART_SIZE = 2**32 - 1
SHA256_SIZE = 32  # the full width; anything from 1 to this truncates sha256


class DigestLengthError(ValueError):
    """Raised when XOR is applied to digests of different widths."""


class OversizedPartError(ValueError):
    """Raised when a hash-input part does not fit a 4-byte length prefix."""


class Digest(bytes):
    """An immutable fixed-width byte string supporting XOR masking.

    A digest is its bytes: it compares equal to, and hashes like, the same
    ``bytes``, and slicing it gives ``bytes``.  XOR is defined only between
    two digests of the same width.
    """

    __slots__ = ()

    def __xor__(self, other: "Digest") -> "Digest":
        if not isinstance(other, Digest):
            return NotImplemented
        width = len(self)
        if width != len(other):
            raise DigestLengthError(f"cannot xor digests of {width} and {len(other)} bytes")
        mixed = int.from_bytes(self, "big") ^ int.from_bytes(other, "big")
        return Digest(mixed.to_bytes(width, "big"))

    def __repr__(self) -> str:
        return f"Digest({self.hex()})"


def _check_digest_size(digest_size: int) -> None:
    if not 1 <= digest_size <= SHA256_SIZE:
        raise ValueError(f"digest size must be 1 to {SHA256_SIZE} bytes, not {digest_size}")


def seeded_random(seed: int) -> random.Random:
    """``random.Random(seed)``, refusing a negative seed it would take as ``abs(seed)``."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return random.Random(seed)


# Length prefixes of the short parts every protocol hash is made of.
_SHORT_PREFIXES = tuple(size.to_bytes(4, "big") for size in range(256))


def encode_parts(parts: "Iterable[bytes]") -> bytes:
    """Frame a sequence of byte-string parts into one unambiguous input.

    Each part is preceded by its length as a 4-byte big-endian integer,
    which makes the encoding injective over part lists.  A ``Digest`` is
    its bytes, so it frames like them.
    """
    chunks = []
    for part in parts:
        size = len(part)
        if size < 256:
            chunks.append(_SHORT_PREFIXES[size])
        elif size > MAX_PART_SIZE:
            raise OversizedPartError(f"part of {size} bytes exceeds the length prefix")
        else:
            chunks.append(size.to_bytes(4, "big"))
        chunks.append(part)
    return b"".join(chunks)


class Hasher:
    """Hash front end with a per-instance invocation counter.

    ``hash`` accepts any mix of ``bytes`` and ``Digest`` parts, frames
    them with ``encode_parts`` (the only place that knows the framing),
    and truncates sha256 to ``digest_size`` bytes.  The counter
    increments by exactly one per ``hash`` call; ``hash_uncounted``
    computes the same digest without touching the counter (used for the
    biometric gate, which the cost accounting excludes).  Each spells out
    the one-line hash rather than calling the other, which keeps a
    protocol hash to a single Python call on the login hot path.
    """

    def __init__(self, digest_size: int = SHA256_SIZE) -> None:
        _check_digest_size(digest_size)
        self.count = 0
        self.digest_size = digest_size

    def hash(self, *parts: bytes) -> Digest:
        self.count += 1
        return Digest(_sha256(encode_parts(parts)).digest()[: self.digest_size])

    def hash_uncounted(self, *parts: bytes) -> Digest:
        return Digest(_sha256(encode_parts(parts)).digest()[: self.digest_size])


class DigestRng:
    """Deterministic source of protocol nonces and registration salts.

    The same seed always yields the same draw sequence, which is what
    makes scenario transcripts reproducible byte for byte.
    """

    def __init__(self, seed: int, digest_size: int) -> None:
        _check_digest_size(digest_size)
        self.digest_size = digest_size
        self._rng = seeded_random(seed)

    def digest(self) -> Digest:
        return Digest(self._rng.randbytes(self.digest_size))

    def salt(self) -> bytes:
        return self._rng.randbytes(SALT_SIZE)
