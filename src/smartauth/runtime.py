"""Server-side state, identity validation, and the replay database.

Both schemes share this plumbing: the server keeps its master secret, the
card-shared secret, its own identity, and a per-user map of the last
recovered client nonce.  The map is what turns a verbatim resend of a
login message into a replay rejection, and it can be snapshotted to a
small line-oriented text format.
"""

from __future__ import annotations

import binascii
import operator
import os
import re
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import NoReturn

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

    def __init__(self, reason: Reason) -> None:
        self.reason = reason
        super().__init__(reason.value)

    @property
    def local(self) -> bool:
        return self.reason in LOCAL_REASONS


ID_BYTES = bytes(range(0x21, 0x7F))  # printable 7-bit, no whitespace


def check_id_format(identity: bytes) -> bool:
    """True iff the identity is 1..64 bytes, each of them in ``ID_BYTES``."""
    return not identity.translate(None, ID_BYTES) and 0 < len(identity) <= MAX_ID_BYTES


def check_credentials(user_id: bytes, password: bytes, biometric: bytes) -> None:
    """Validate registration inputs; raises on malformed values."""
    if not check_id_format(user_id):
        raise Rejected(Reason.BAD_ID_FORMAT)
    check_password(password)
    if not biometric:
        raise ValueError("biometric sample must be non-empty")


def check_password(password: bytes) -> None:
    if not 1 <= len(password) <= MAX_SECRET_BYTES:
        raise ValueError(f"password must be 1..{MAX_SECRET_BYTES} bytes")


@dataclass(frozen=True)
class RegistrationCenter:
    """The trusted enrolment party; holds only the two long-term secrets."""

    master_secret: bytes
    shared_secret: bytes


@dataclass
class ServerState:
    """One authentication server.

    ``master_secret`` and ``shared_secret`` never leave this process:
    they appear in no message and no transcript.  ``replay_db`` maps a
    user identity to the client nonce recovered from that user's last
    accepted login, as plain ``bytes``, whether stored or loaded.
    """

    master_secret: bytes
    shared_secret: bytes
    server_id: bytes
    replay_db: dict[bytes, bytes] = field(default_factory=dict)


def replay_check_and_store(server: ServerState, user_id: bytes, nonce: bytes) -> bool:
    """Record the recovered nonce; False means a verbatim replay.

    No entry or a different entry counts as fresh and is stored, as plain
    ``bytes``; an identical entry leaves the database unchanged.
    """
    if server.replay_db.get(user_id) == nonce:
        return False
    server.replay_db[user_id] = bytes(nonce)
    return True


class SnapshotError(ValueError):
    """Malformed replay-database snapshot; carries the offending line number."""

    def __init__(self, line_no: int, message: str) -> None:
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


# The one statement of canonical snapshot text: an identity keeps as-is each byte
# of ``ID_BYTES`` but ``\``, which opens every escape, and writes every other byte
# as a lowercase ``\xhh`` escape.  The loader accepts only lines this writer gives back.
_ESCAPE_SEQ = re.compile(rb"\\x([0-9a-f]{2})")
_BACKSLASH = ord("\\")  # an int: ``in`` finds it faster than the one-byte ``b"\\"``

# Save and load hold one batch of lines or one buffer in memory, never the file.
_WRITE_LINES = 1024
_READ_BYTES = 1 << 16


def _escape_joined(joined: bytes) -> bytes:
    """Identities joined by line feeds, ``\\`` and each byte outside ``ID_BYTES`` escaped.

    Line feeds stay.  The one escaper: ``_entry_lines`` rejoins a line
    feed inside an identity as ``\\x0a`` itself.  ``\\`` goes first, as
    every escape brings one in; one ``translate`` then finds the other
    values to escape, each with one ``replace`` over the whole text, so
    the cost follows the number of distinct values, not of escapes.
    """
    escaped = joined.replace(b"\\", b"\\x5c")
    for byte in set(joined.translate(None, ID_BYTES + b"\n")):
        escaped = escaped.replace(bytes((byte,)), b"\\x%02x" % byte)
    return escaped


def _unescape_byte(match: "re.Match[bytes]") -> bytes:
    return bytes((int(match[1], 16),))


def _entry_lines(identities: "list[bytes]", nonces: "list[bytes]") -> bytes:
    """Snapshot lines, one ``identity<TAB>nonce-hex<LF>`` per entry, in the given order.

    Each step works on the whole batch at once: one ``hexlify`` gives every
    nonce's hex, and ``_escape_joined`` escapes the identities joined by
    line feeds.  An identity that holds line feeds splits into that many
    more pieces, rejoined by ``\\x0a``.  The batch is never empty and its
    nonces share one width; ``ValueError`` if that width is 0.
    """
    width = len(nonces[0])
    if not width:
        raise ValueError("empty nonce")
    hexes = binascii.hexlify(b"".join(nonces), b"\n", width).split(b"\n")
    escaped = _escape_joined(b"\n".join(identities)).split(b"\n")
    if len(escaped) > len(identities):  # some identity held raw line feeds
        pieces = iter(escaped)
        escaped = [b"\\x0a".join(islice(pieces, i.count(b"\n") + 1)) for i in identities]
    return b"\n".join(map(b"\t".join, zip(escaped, hexes))) + b"\n"


def save_replay_db(server: ServerState, path: "str | Path") -> None:
    """Write the replay database as sorted ``identity<TAB>nonce-hex`` lines.

    This writer defines the format: ``load_replay_db`` accepts exactly the
    lines it writes, and ``_entry_lines`` writes each batch of them.  A
    database it could not reload (an empty nonce, or nonces of more than
    one width) raises ``ValueError`` before any file is created.  The text
    goes to a private temporary file (mode 0600) in the same directory,
    ``_WRITE_LINES`` lines per write, so memory beyond the map stays
    bounded; that file then replaces ``path`` in one step: a reader sees
    the old snapshot or the new one, never a partial file.
    """
    path = Path(path)
    db = server.replay_db
    widths = set(map(len, db.values()))  # checked before any file exists
    if len(widths) > 1:
        raise ValueError("inconsistent nonce width")
    if 0 in widths:
        raise ValueError("empty nonce")
    identities = sorted(db)
    # 60 characters of at most 4 bytes keep the temporary name within 255 bytes.
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name[:60]}.", suffix=".tmp")
    try:
        with open(fd, "wb") as fh:
            fh.write(SNAPSHOT_HEADER.encode() + b"\n")
            for start in range(0, len(identities), _WRITE_LINES):
                batch = identities[start : start + _WRITE_LINES]
                fh.write(_entry_lines(batch, list(map(db.__getitem__, batch))))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_replay_db(path: "str | Path") -> dict[bytes, bytes]:
    """Parse a snapshot back into a replay map; strict, with line numbers.

    Nonces load as plain ``bytes``, the type a login stores: the server
    only compares them, and the cyclic GC does not track ``bytes``.  The
    file is read in chunks of lines of about ``_READ_BYTES``, so memory
    beyond the map stays bounded.  A chunk is accepted only if
    ``_entry_lines``, the writer ``save_replay_db`` uses, gives back its
    exact bytes, its nonces have the first entry's width and its
    identities ascend strictly past the previous one.  Otherwise each line
    is checked on its own, only to name the first bad one (an unterminated
    last line included) in the ``SnapshotError`` raised.
    """
    entries: dict[bytes, bytes] = {}
    width = 0
    previous: bytes | None = None
    line_no = 1
    with open(path, "rb", buffering=_READ_BYTES) as fh:
        header = next(fh, b"")
        if header.rstrip(b"\n") != SNAPSHOT_HEADER.encode():
            raise SnapshotError(1, f"expected header {SNAPSHOT_HEADER!r}")
        if not header.endswith(b"\n"):
            raise SnapshotError(1, "missing final newline")
        while lines := fh.readlines(_READ_BYTES):
            batch = _canonical_chunk(lines, width, previous)
            if batch is None:
                _raise_at_first_bad_line(lines, line_no, width, previous)
            ids, nonces = batch
            entries.update(zip(ids, nonces))
            width = len(nonces[0])
            previous = ids[-1]
            line_no += len(lines)
    return entries


def _canonical_chunk(
    lines: "list[bytes]", width: int, previous: "bytes | None"
) -> "tuple[list[bytes], list[bytes]] | None":
    """The identities and nonces of ``lines``, or ``None`` unless they pass.

    They pass when the writer gives back their exact bytes, every nonce is
    ``width`` bytes (any one width while ``width`` is 0) and the identities
    ascend past ``previous``.
    """
    data = b"".join(lines)
    count = len(lines)
    fields = data.replace(b"\t", b"\n").split(b"\n")
    if len(fields) != 2 * count + 1:  # not one tab and one line feed a line
        return None
    id_texts, hex_texts = fields[:-1:2], fields[1::2]
    width = width or len(hex_texts[0]) // 2
    try:
        raw = binascii.unhexlify(b"".join(hex_texts))
    except ValueError:
        return None
    if not width or len(raw) != width * count:
        return None
    nonces = [raw[start : start + width] for start in range(0, len(raw), width)]
    ids = [
        _ESCAPE_SEQ.sub(_unescape_byte, id_text) if _BACKSLASH in id_text else id_text
        for id_text in id_texts
    ]
    if previous is not None and ids[0] <= previous:
        return None
    if not all(map(operator.lt, ids, ids[1:])) or _entry_lines(ids, nonces) != data:
        return None
    return ids, nonces


def _raise_at_first_bad_line(
    lines: "list[bytes]", line_no: int, width: int, previous: "bytes | None"
) -> NoReturn:
    """Name the first line of a refused chunk that breaks a rule.

    Each line is checked as a one-entry batch; the lines before ``lines``
    end at ``line_no``.  A chunk is refused only when one of its lines is
    bad, so the loop always raises.
    """
    for line_no, line in enumerate(lines, start=line_no + 1):
        entry = line.rstrip(b"\n")
        id_text, _, hex_text = entry.partition(b"\t")
        user_id = _ESCAPE_SEQ.sub(_unescape_byte, id_text)
        try:
            raw = binascii.unhexlify(hex_text)
            canonical = _entry_lines([user_id], [raw]) == entry + b"\n"
        except ValueError as exc:
            raise SnapshotError(line_no, f"bad nonce: {exc}") from None
        if not canonical:
            raise SnapshotError(line_no, "not in the canonical form save_replay_db writes")
        if width and len(raw) != width:
            raise SnapshotError(line_no, "inconsistent nonce width")
        width = len(raw)
        # Ascending order is what the writer produces; it also rules out duplicates.
        if previous is not None and user_id <= previous:
            raise SnapshotError(line_no, "identity repeated or out of ascending order")
        # Checked after the line itself, so a malformed last line is the one reported.
        if not line.endswith(b"\n"):
            raise SnapshotError(line_no, "missing final newline")
        previous = user_id
    raise AssertionError("the chunk check refused a chunk with no bad line")
