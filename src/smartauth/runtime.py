"""Server-side state, identity validation, and the replay database.

Both schemes share this plumbing: the server keeps its master secret, the
card-shared secret, its own identity, and a per-user map of the last
recovered client nonce.  The map is what turns a verbatim resend of a
login message into a replay rejection, and it can be snapshotted to a
small line-oriented text format.
"""

from __future__ import annotations

import codecs
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


def _escape_id(identity: bytes) -> str:
    out = []
    for b in identity:
        if 0x21 <= b <= 0x7E and b != 0x5C:
            out.append(chr(b))
        else:
            out.append(f"\\x{b:02x}")
    return "".join(out)


# Canonical snapshot text, exactly what the writer produces: an identity keeps
# printable 7-bit bytes other than ``\`` and writes every other byte (0x00-0x20,
# 0x5c, 0x7f-0xff) as a lowercase ``\xhh`` escape; a nonce is lowercase hex.
# The identity pattern is written as plain-run (escape plain-run)* because a
# per-character alternation makes the regex several times slower.
_PLAIN_RUN = r"[\x21-\x5b\x5d-\x7e]*"
_ID_RE = re.compile(
    rf"{_PLAIN_RUN}(?:\\x(?:[01][0-9a-f]|20|5c|7f|[89a-f][0-9a-f]){_PLAIN_RUN})*"
)
# Looked up once: ``str.decode("unicode_escape")`` repeats the codec lookup
# on every call, which costs more than the decoding itself.
_decode_escapes = codecs.getdecoder("unicode_escape")


def save_replay_db(server: ServerState, path: "str | Path") -> None:
    """Write the replay database as sorted ``identity<TAB>nonce-hex`` lines.

    The text goes to a private temporary file (mode 0600) in the same
    directory, which then replaces ``path`` in one step: a reader sees the
    old snapshot or the new one, never a partial file.
    """
    path = Path(path)
    lines = [SNAPSHOT_HEADER]
    for user_id in sorted(server.replay_db):
        lines.append(f"{_escape_id(user_id)}\t{server.replay_db[user_id].hex()}")
    lines.append("")  # the final newline
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with open(fd, "wb") as fh:
            fh.write("\n".join(lines).encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_utf8(path: "str | Path") -> str:
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotError(data.count(b"\n", 0, exc.start) + 1, "not valid UTF-8") from None


def load_replay_db(path: "str | Path") -> dict[bytes, Digest]:
    """Parse a snapshot back into a replay map; strict, with line numbers.

    Every line, the last one included, ends in a line feed and nothing
    else.  Identities and nonces are accepted only in the canonical form
    ``save_replay_db`` writes, identities in strictly ascending byte
    order; anything else raises ``SnapshotError`` naming the offending
    line.
    """
    lines = _read_utf8(path).split("\n")
    if lines.pop() != "":
        raise SnapshotError(len(lines) + 1, "missing final newline")
    if not lines or lines[0] != SNAPSHOT_HEADER:
        raise SnapshotError(1, f"expected header {SNAPSHOT_HEADER!r}")
    entries: dict[bytes, Digest] = {}
    width: int | None = None
    previous: bytes | None = None
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            raise SnapshotError(line_no, "blank line")
        if line.count("\t") != 1:
            raise SnapshotError(line_no, "expected identity<TAB>hex")
        id_text, hex_text = line.split("\t")
        if not _ID_RE.fullmatch(id_text):
            raise SnapshotError(line_no, "identity is not in canonical escaped form")
        user_id = _decode_escapes(id_text)[0].encode("latin-1")
        try:
            raw = bytes.fromhex(hex_text)
        except ValueError:
            raise SnapshotError(line_no, "bad nonce hex") from None
        if not raw:
            raise SnapshotError(line_no, "empty nonce")
        if raw.hex() != hex_text:
            raise SnapshotError(line_no, "nonce hex is not in canonical form")
        if width is None:
            width = len(raw)
        elif len(raw) != width:
            raise SnapshotError(line_no, "inconsistent nonce width")
        # Ascending order is what the writer produces; it also rules out duplicates.
        if previous is not None and user_id <= previous:
            raise SnapshotError(line_no, "identity repeated or out of ascending order")
        previous = user_id
        entries[user_id] = Digest(raw)
    return entries
