"""Shared test helpers: a scripted rng, raw reference hashing, and setup."""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass

from smartauth import Digest, DigestRng, Hasher, RegistrationCenter, ServerState


class FixedRng:
    """Hands out preset salts and digests, for pinning protocol nonces."""

    def __init__(self, digests=(), salts=()):
        self._digests = list(digests)
        self._salts = list(salts)

    def digest(self) -> Digest:
        return self._digests.pop(0)

    def salt(self) -> bytes:
        return self._salts.pop(0)


def raw_hash(width: int, *parts: bytes) -> bytes:
    """Independent reference hash: length-framed sha256, truncated.

    Deliberately reimplemented from the wire convention (4-byte big-endian
    length prefix per part) so implementation and tests cannot share a bug.
    """
    data = b"".join(struct.pack(">I", len(p)) + p for p in parts)
    return hashlib.sha256(data).digest()[:width]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    assert len(a) == len(b)
    return bytes(x ^ y for x, y in zip(a, b))


@dataclass
class Setup:
    """One registered user against one server, driven directly (no channel)."""

    hasher: Hasher
    rng: DigestRng
    rc: RegistrationCenter
    server: ServerState
    user_id: bytes
    password: bytes
    biometric: bytes
    card: object

    @property
    def server_id(self) -> bytes:
        return self.server.server_id


def make_setup(mod, seed: int = 0, digest_size: int = 32) -> Setup:
    """Register one user under the given scheme module with seeded values."""
    rnd = random.Random(seed)
    master_secret = Digest(rnd.randbytes(digest_size))
    shared_secret = Digest(rnd.randbytes(digest_size))
    rc = RegistrationCenter(master_secret, shared_secret)
    server = ServerState(master_secret, shared_secret, server_id=b"srv-main")
    hasher = Hasher(digest_size)
    rng = DigestRng(rnd.getrandbits(64), digest_size)
    user_id = b"user-%d" % seed
    password = b"pw-%d-correct" % seed
    biometric = b"thumbprint-%d" % seed
    card = mod.register(hasher, rc, user_id, password, biometric, rng)
    return Setup(hasher, rng, rc, server, user_id, password, biometric, card)


def exchange(mod, s: Setup, password: bytes | None = None):
    """Drive one full honest-path exchange; returns (client_key, server_session, client_session)."""
    message, client_session = mod.login(
        s.hasher, s.card, s.user_id, password or s.password, s.biometric, s.rng
    )
    response, server_session = mod.authenticate(s.hasher, s.server, message, s.rng)
    client_key = mod.verify_server(s.hasher, client_session, s.card, response, s.server_id)
    return client_key, server_session, client_session
