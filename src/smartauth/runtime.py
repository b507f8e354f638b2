"""Server-side state, identity validation, and the replay database.

Both schemes share this plumbing: the server keeps its master secret, the
card-shared secret, its own identity, and a per-user map of the last
recovered client nonce.  The map is what turns a verbatim resend of a
login message into a replay rejection, and it can be snapshotted to a
small line-oriented text format.
"""

from __future__ import annotations

import binascii
import os
import re
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .hashing import Digest

MAX_ID_BYTES = 64
MAX_SECRET_BYTES = 64

SNAPSHOT_HEADER = "smartauth-replaydb v1"


class Reason(str, Enum):
    """Why a run stopped; distinguishable so tests can assert which check fired."""

    BAD_ID_FORMAT = "format"
    BIOMETRIC_MISMATCH = "biometric"
    WRONG_PASSWORD = "wrong-password"
    NONCE_TAG_MISMATCH = "nonce-tag"
    CHECKSUM_MISMATCH = "checksum"
    REPLAY = "replay"
    SERVER_AUTH_FAILED = "server-auth"
    SERVER_NONCE_TAG_MISMATCH = "server-nonce-tag"
    SERVER_CHECKSUM_MISMATCH = "server-checksum"


# Rejections raised by the card itself, before anything reaches the wire.
LOCAL_REASONS = frozenset({Reason.BIOMETRIC_MISMATCH, Reason.WRONG_PASSWORD})


class Rejected(Exception):
    """A protocol check failed; ``reason`` identifies the check."""

    def __init__(self, reason: Reason, detail: str = "") -> None:
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason.value}: {detail}" if detail else reason.value)

    @property
    def local(self) -> bool:
        return self.reason in LOCAL_REASONS


_ID_FORMAT = re.compile(rb"[\x21-\x7e]{1,%d}" % MAX_ID_BYTES)


def check_id_format(identity: bytes) -> bool:
    """True iff the identity is 1..64 bytes of printable 7-bit, no whitespace."""
    return _ID_FORMAT.fullmatch(identity) is not None


def check_credentials(user_id: bytes, password: bytes, biometric: bytes) -> None:
    """Validate registration inputs; raises on malformed values."""
    if not check_id_format(user_id):
        raise Rejected(Reason.BAD_ID_FORMAT, "identity fails the format check")
    check_password(password)
    if not biometric:
        raise ValueError("biometric sample must be non-empty")


def check_password(password: bytes) -> None:
    if not 1 <= len(password) <= MAX_SECRET_BYTES:
        raise ValueError(f"password must be 1..{MAX_SECRET_BYTES} bytes")


@dataclass(frozen=True)
class RegistrationCenter:
    """The trusted enrolment party; holds only the two long-term secrets."""

    master_secret: Digest
    shared_secret: Digest


@dataclass
class ServerState:
    """One authentication server.

    ``master_secret`` and ``shared_secret`` never leave this process:
    they appear in no message and no transcript.  ``replay_db`` maps a
    user identity to the client nonce recovered from that user's last
    accepted login.
    """

    master_secret: Digest
    shared_secret: Digest
    server_id: bytes
    replay_db: dict[bytes, Digest] = field(default_factory=dict)


def replay_check_and_store(server: ServerState, user_id: bytes, nonce: Digest) -> bool:
    """Record the recovered nonce; False means a verbatim replay.

    No entry or a different entry counts as fresh and the entry is
    stored or replaced; an identical entry leaves the database unchanged.
    """
    seen = server.replay_db.get(user_id)
    if seen is not None and seen == nonce:
        return False
    server.replay_db[user_id] = nonce
    return True


class SnapshotError(ValueError):
    """Malformed replay-database snapshot; carries the offending line number."""

    def __init__(self, line_no: int, message: str) -> None:
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


# The one statement of canonical snapshot text: an identity keeps printable
# 7-bit bytes other than ``\`` and writes every other byte as a lowercase
# ``\xhh`` escape.  The loader accepts a line only if this writer gives it back.
_ESCAPED = re.compile(rb"[^\x21-\x5b\x5d-\x7e]")
_ESCAPE_SEQ = re.compile(rb"\\x([0-9a-f]{2})")
_BACKSLASH = ord("\\")  # an int: ``in`` finds it faster than the one-byte ``b"\\"``

# Save and load hold one batch of lines or one buffer in memory, never the file.
_WRITE_LINES = 1024
_READ_BYTES = 1 << 16


def _escape_byte(match: "re.Match[bytes]") -> bytes:
    return b"\\x%02x" % match[0][0]


def _unescape_byte(match: "re.Match[bytes]") -> bytes:
    return bytes((int(match[1], 16),))


def _entry_line(identity: bytes, nonce: bytes) -> bytes:
    """One snapshot line, without its line feed: ``identity<TAB>nonce-hex``."""
    if not nonce:
        raise ValueError("empty nonce")
    return _ESCAPED.sub(_escape_byte, identity) + b"\t" + binascii.hexlify(nonce)


def save_replay_db(server: ServerState, path: "str | Path") -> None:
    """Write the replay database as sorted ``identity<TAB>nonce-hex`` lines.

    This writer defines the format: ``load_replay_db`` accepts exactly the
    lines it writes.  A database it could not reload (an empty nonce, or
    nonces of more than one width) raises ``ValueError`` before any file
    is created.  The text goes to a private temporary file (mode 0600) in
    the same directory, ``_WRITE_LINES`` lines per write, so memory beyond
    the map stays bounded; that file then replaces ``path`` in one step: a
    reader sees the old snapshot or the new one, never a partial file.
    """
    path = Path(path)
    db = server.replay_db
    widths = {len(nonce) for nonce in db.values()}
    if len(widths) > 1:
        raise ValueError("inconsistent nonce width")
    if 0 in widths:
        raise ValueError("empty nonce")
    identities = sorted(db)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with open(fd, "wb") as fh:
            fh.write(SNAPSHOT_HEADER.encode() + b"\n")
            for start in range(0, len(identities), _WRITE_LINES):
                batch = identities[start : start + _WRITE_LINES]
                fh.write(b"\n".join([_entry_line(user_id, db[user_id]) for user_id in batch]))
                fh.write(b"\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_replay_db(path: "str | Path") -> dict[bytes, Digest]:
    """Parse a snapshot back into a replay map; strict, with line numbers.

    Every line ends in a line feed.  An entry line is accepted only if the
    line writer ``save_replay_db`` uses gives back its exact bytes, its
    nonce has the first entry's width and its identity follows the
    previous one in strictly ascending byte order.  Otherwise the first
    line that breaks a rule, a last line without its line feed included,
    raises ``SnapshotError`` naming it.  The file's own line iteration
    reads it through one ``_READ_BYTES`` buffer and each line is checked
    as it comes, so memory beyond the map stays bounded.
    """
    entries: dict[bytes, Digest] = {}
    width: int | None = None
    previous: bytes | None = None
    with open(path, "rb", buffering=_READ_BYTES) as fh:
        line = next(fh, b"")
        if line.rstrip(b"\n") != SNAPSHOT_HEADER.encode():
            raise SnapshotError(1, f"expected header {SNAPSHOT_HEADER!r}")
        line_no = 1
        for line_no, line in enumerate(fh, start=2):
            entry = line.rstrip(b"\n")
            id_text, _, hex_text = entry.partition(b"\t")
            user_id = _ESCAPE_SEQ.sub(_unescape_byte, id_text) if _BACKSLASH in id_text else id_text
            try:
                raw = binascii.unhexlify(hex_text)
                canonical = _entry_line(user_id, raw) == entry
            except ValueError as exc:
                raise SnapshotError(line_no, f"bad nonce: {exc}") from None
            if not canonical:
                raise SnapshotError(line_no, "not in the canonical form save_replay_db writes")
            if width is None:
                width = len(raw)
            elif len(raw) != width:
                raise SnapshotError(line_no, "inconsistent nonce width")
            # Ascending order is what the writer produces; it also rules out duplicates.
            if previous is not None and user_id <= previous:
                raise SnapshotError(line_no, "identity repeated or out of ascending order")
            previous = user_id
            entries[user_id] = Digest(raw)
    # Checked after the last line itself, so a malformed last line is the one reported.
    if not line.endswith(b"\n"):
        raise SnapshotError(line_no, "missing final newline")
    return entries
