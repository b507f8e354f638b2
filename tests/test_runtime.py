"""Identity validation, replay database and snapshots, channel, transcript."""

import binascii
import dataclasses
import os
import re
import stat
import tracemalloc

import pytest

from smartauth import (
    AdversarialChannel,
    Digest,
    Event,
    Reason,
    Rejected,
    ServerState,
    SnapshotError,
    Tamper,
    Transcript,
    baseline,
    check_id_format,
    improved,
    load_replay_db,
    replay_check_and_store,
    save_replay_db,
)
from smartauth import runtime
from smartauth.channel import flip_bit, message_fields, tamper_message

from support import exchange, make_setup, raw_hash, xor_bytes


def _server(db=None):
    return ServerState(
        Digest(b"\xaa" * 32), Digest(b"\xbb" * 32), b"srv-test", dict(db or {})
    )


# --- identity format ---------------------------------------------------

def test_id_format_accepts_printable_no_whitespace():
    assert check_id_format(b"A")
    assert check_id_format(b"alice!#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")
    assert check_id_format(b"x" * 64)


def test_id_format_rejects_bad_lengths_and_bytes():
    assert not check_id_format(b"")
    assert not check_id_format(b"x" * 65)
    for bad in (b"has space", b"tab\tx", b"nl\nx", b"\x7fdel", b"\x80high", b"\x00nul"):
        assert not check_id_format(bad)


def _bytewise_id_format(identity: bytes) -> bool:
    # The rule stated byte by byte, independently of ``runtime.ID_BYTES``, as a reference.
    if not 1 <= len(identity) <= 64:
        return False
    return all(0x21 <= b <= 0x7E for b in identity)


def test_id_format_matches_the_bytewise_definition():
    cases = [bytes([b]) for b in range(256)]
    cases += [b"x" * n for n in (0, 1, 64, 65)]
    cases += [b"x" * 63 + bytes([b]) for b in range(256)]
    for identity in cases:
        assert check_id_format(identity) == _bytewise_id_format(identity), identity
        assert check_id_format(bytearray(identity)) == _bytewise_id_format(identity), identity
    with pytest.raises(TypeError):
        check_id_format("alice")


# --- replay database ---------------------------------------------------

def test_replay_db_stores_fresh_nonce():
    server = _server()
    nonce = Digest(b"\x01" * 32)
    assert replay_check_and_store(server, b"alice", nonce)
    assert server.replay_db[b"alice"] == nonce


def test_replay_db_flags_identical_nonce_and_keeps_entry():
    nonce = Digest(b"\x02" * 32)
    server = _server({b"alice": nonce})
    assert not replay_check_and_store(server, b"alice", nonce)
    assert server.replay_db[b"alice"] == nonce


def test_replay_db_replaces_different_nonce():
    old, new = Digest(b"\x03" * 32), Digest(b"\x04" * 32)
    server = _server({b"alice": old})
    assert replay_check_and_store(server, b"alice", new)
    assert server.replay_db[b"alice"] == new


@pytest.mark.parametrize("mod", [baseline, improved], ids=["baseline", "improved"])
def test_stale_replay_of_an_older_login_is_accepted(mod):
    # The replay DB keeps only the last nonce per user, so once a second
    # login has replaced it, resending the first captured login passes as
    # fresh and earns a fresh response.  A known weakness of both schemes,
    # pinned here so nobody fixes it by accident.
    s = make_setup(mod, seed=30)
    first, _ = mod.login(s.hasher, s.card, s.user_id, s.password, s.biometric, s.rng)
    _, first_session = mod.authenticate(s.hasher, s.server, first, s.rng)
    second, _ = mod.login(s.hasher, s.card, s.user_id, s.password, s.biometric, s.rng)
    mod.authenticate(s.hasher, s.server, second, s.rng)
    _, replayed_session = mod.authenticate(s.hasher, s.server, first, s.rng)
    assert replayed_session.client_nonce == first_session.client_nonce
    assert replayed_session.server_nonce != first_session.server_nonce
    assert s.server.replay_db[s.user_id] == first_session.client_nonce


@pytest.mark.parametrize("mod", [baseline, improved], ids=["baseline", "improved"])
def test_a_snapshot_and_the_last_login_give_the_identity_key(mod, tmp_path):
    # A snapshot holds each user's last accepted client nonce, and that
    # login's masked nonce is the same nonce XOR h(user_id, master_secret),
    # so the two together give the identity key.  A known weakness of both
    # schemes, pinned here: a snapshot must be kept secret.
    s = make_setup(mod, seed=11)
    message, _ = mod.login(s.hasher, s.card, s.user_id, s.password, s.biometric, s.rng)
    mod.authenticate(s.hasher, s.server, message, s.rng)
    path = tmp_path / "db.snapshot"
    save_replay_db(s.server, path)
    nonce = load_replay_db(path)[s.user_id]
    assert xor_bytes(nonce, message.masked_nonce) == raw_hash(32, s.user_id, s.rc.master_secret)


@pytest.mark.parametrize("mod", [baseline, improved], ids=["baseline", "improved"])
def test_a_server_restored_from_a_snapshot_refuses_the_last_login(mod, tmp_path):
    # A login stores its nonce as plain bytes, the type the restored map
    # holds, and the server recovers a Digest from the resent login; the
    # two must still compare equal.
    s = make_setup(mod, seed=12)
    message, _ = mod.login(s.hasher, s.card, s.user_id, s.password, s.biometric, s.rng)
    mod.authenticate(s.hasher, s.server, message, s.rng)
    stored = s.server.replay_db[s.user_id]
    path = tmp_path / "db.snapshot"
    save_replay_db(s.server, path)
    s.server = dataclasses.replace(s.server, replay_db=load_replay_db(path))
    assert type(stored) is type(s.server.replay_db[s.user_id]) is bytes
    with pytest.raises(Rejected) as err:
        mod.authenticate(s.hasher, s.server, message, s.rng)
    assert err.value.reason is Reason.REPLAY
    client_key, server_session, _ = exchange(mod, s)
    assert client_key == server_session.session_key


# --- snapshots ----------------------------------------------------------

def test_snapshot_round_trip(tmp_path):
    server = _server({
        b"carol": Digest(b"\x10" * 32),
        b"alice": Digest(b"\x11" * 32),
        b"bob": Digest(b"\x12" * 32),
    })
    path = tmp_path / "db.snapshot"
    save_replay_db(server, path)
    text = path.read_text()
    assert text.splitlines()[0] == "smartauth-replaydb v1"
    assert text.splitlines()[1].startswith("alice\t")  # sorted by identity
    loaded = load_replay_db(path)
    assert loaded == server.replay_db
    resaved = tmp_path / "resaved.snapshot"
    save_replay_db(_server(loaded), resaved)
    assert resaved.read_text() == text


def test_snapshot_escapes_odd_identities(tmp_path):
    server = _server({b"a\\b": Digest(b"\x01" * 4), b"\x01\xff": Digest(b"\x02" * 4)})
    path = tmp_path / "odd.snapshot"
    save_replay_db(server, path)
    assert load_replay_db(path) == server.replay_db


def test_snapshot_empty_db(tmp_path):
    path = tmp_path / "empty.snapshot"
    save_replay_db(_server(), path)
    assert path.read_text() == "smartauth-replaydb v1\n"
    assert load_replay_db(path) == {}


@pytest.mark.parametrize(
    "content,line_no",
    [
        ("wrong header\n", 1),
        ("smartauth-replaydb v1\n\nalice\t0011\n", 2),
        ("smartauth-replaydb v1\nno-tab-here\n", 2),
        ("smartauth-replaydb v1\nalice\tnothex\n", 2),
        ("smartauth-replaydb v1\nalice\t\n", 2),
        ("smartauth-replaydb v1\nalice\t0011\nbob\t001122\n", 3),
        ("smartauth-replaydb v1\nalice\t0011\nalice\t2233\n", 3),
        ("smartauth-replaydb v1\nbob\t0011\nalice\t2233\n", 3),  # out of order
        ("smartauth-replaydb v1\nbad\\zesc\t0011\n", 2),
        ("smartauth-replaydb v1\r\nalice\t0011\r\n", 1),  # CRLF header
        ("smartauth-replaydb v1\nalice\t0011\r\n", 2),  # CRLF entry
        ("smartauth-replaydb v1", 1),  # no final newline after the header
        ("smartauth-replaydb v1\nalice\t0011", 2),  # no final newline
        ("smartauth-replaydb v1\nalice\t0011\x85bob\t2233\n", 2),  # NEL is no line break
        ("smartauth-replaydb v1\nalice\t0011\u2028bob\t2233\n", 2),  # nor is U+2028
        (b"smartauth-replaydb v1\nalice\t0011\nb\xffb\t2233\n", 3),  # not UTF-8
        ("smartauth-replaydb v1\nalice\t00\t11\n", 2),  # two tabs
        ("smartauth-replaydb v1\na\\u0041\t0011\n", 2),  # \xhh is the only escape
        ("smartauth-replaydb v1\na\\N{DIGIT ONE}\t0011\n", 2),
        (b"smartauth-replaydb v1\nbad\\zesc\t0011\nb\xffb\t2233\n", 2),  # first bad line wins
        ("smartauth-replaydb v1\nbad line\nalice\t0011", 2),  # even before a missing final newline
    ],
)
def test_snapshot_parse_errors_carry_line_numbers(tmp_path, content, line_no):
    path = tmp_path / "bad.snapshot"
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    with pytest.raises(SnapshotError) as err:
        load_replay_db(path)
    assert err.value.line_no == line_no
    assert f"line {line_no}" in str(err.value)


@pytest.mark.parametrize(
    "bad,canonical",
    [
        ("caf\u20ac\t0011", "caf\\xe2\\x82\\xac\t0011"),  # non-ASCII identity text
        ("a\\x+1\t0011", "a\\x01\t0011"),  # sign inside an escape
        ("a\\x0\t0011", "a\\x00\t0011"),  # truncated escape
        ("a\\x41\t0011", "aA\t0011"),  # escape of a byte the writer keeps plain
        ("a\\x5C\t0011", "a\\x5c\t0011"),  # uppercase escape digits
        ("a b\t0011", "a\\x20b\t0011"),  # raw space
        ("alice\t00AB", "alice\t00ab"),  # uppercase nonce hex
        ("alice\t00 11", "alice\t0011"),  # space inside nonce hex
        ("alice\t001", "alice\t0011"),  # odd number of hex digits
    ],
    ids=[
        "non-ascii", "signed-escape", "truncated-escape", "needless-escape",
        "uppercase-escape", "raw-space", "uppercase-hex", "spaced-hex", "odd-hex",
    ],
)
def test_snapshot_rejects_non_canonical_text(tmp_path, bad, canonical):
    header_and_first = "smartauth-replaydb v1\n0first\t2233\n"
    path = tmp_path / "bad.snapshot"
    path.write_text(header_and_first + bad + "\n", encoding="utf-8")
    with pytest.raises(SnapshotError) as err:
        load_replay_db(path)
    assert err.value.line_no == 3

    text = header_and_first + canonical + "\n"
    path.write_text(text, encoding="utf-8")
    resaved = tmp_path / "resaved.snapshot"
    save_replay_db(_server(load_replay_db(path)), resaved)
    assert resaved.read_text(encoding="utf-8") == text


def test_snapshot_save_replaces_the_file_in_one_step(tmp_path, monkeypatch):
    path = tmp_path / "db.snapshot"
    save_replay_db(_server({b"alice": Digest(b"\x01" * 4)}), path)
    before = path.read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted before the rename")

    monkeypatch.setattr(runtime.os, "replace", interrupted)
    with pytest.raises(OSError):
        save_replay_db(_server({b"bob": Digest(b"\x02" * 4)}), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["db.snapshot"]  # no temp file left


def test_snapshot_file_is_private(tmp_path):
    server = _server({b"alice": Digest(b"\x01" * 4)})
    path = tmp_path / "db.snapshot"
    save_replay_db(server, path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    path.chmod(0o644)
    save_replay_db(server, path)  # the replaced file's mode is not kept
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_snapshot_with_a_255_byte_name(tmp_path):
    if os.pathconf(tmp_path, "PC_NAME_MAX") < 255:
        pytest.skip("this filesystem's names are shorter than 255 bytes")
    server = _server({b"alice": Digest(b"\x01" * 4)})
    for name in ("s" * 255, "\u00e9" * 127 + "s", "\U0001d11e" * 63 + "sss"):
        assert len(os.fsencode(name)) == 255
        path = tmp_path / name
        save_replay_db(server, path)
        assert load_replay_db(path) == server.replay_db
        assert [p.name for p in tmp_path.iterdir()] == [name]  # no temp file left
        path.unlink()


@pytest.mark.parametrize(
    "db",
    [
        {b"a": Digest(b"\x01" * 2), b"b": Digest(b"\x02" * 4)},
        {b"a": Digest(b"")},
    ],
    ids=["mixed-widths", "empty-nonce"],
)
def test_snapshot_save_refuses_a_db_it_could_not_reload(tmp_path, monkeypatch, db):
    path = tmp_path / "db.snapshot"
    path.write_bytes(b"previous snapshot\n")

    def no_temp_file(*args, **kwargs):
        raise AssertionError("a temporary file was created before the refusal")

    monkeypatch.setattr(runtime.tempfile, "mkstemp", no_temp_file)
    with pytest.raises(ValueError):
        save_replay_db(_server(db), path)
    assert path.read_bytes() == b"previous snapshot\n"
    assert [p.name for p in tmp_path.iterdir()] == ["db.snapshot"]  # no temp file made


def test_snapshot_escapes_exactly_the_non_printable_bytes_and_backslash(tmp_path):
    path = tmp_path / "bytes.snapshot"
    save_replay_db(_server({bytes([b]): Digest(b"\x5c") for b in range(256)}), path)
    expected = "smartauth-replaydb v1\n" + "".join(
        (chr(b) if 0x21 <= b <= 0x7E and b != 0x5C else f"\\x{b:02x}") + "\t5c\n"
        for b in range(256)
    )
    assert path.read_bytes() == expected.encode("ascii")
    assert load_replay_db(path) == {bytes([b]): Digest(b"\x5c") for b in range(256)}


def test_snapshot_duplicate_reported_at_second_occurrence(tmp_path):
    path = tmp_path / "dup.snapshot"
    path.write_text(
        "smartauth-replaydb v1\nalice\t0011\nbob\t2233\nalice\t4455\n"
    )
    with pytest.raises(SnapshotError) as err:
        load_replay_db(path)
    assert err.value.line_no == 4


_HEADER = b"smartauth-replaydb v1\n"


def _whole_file_load(data: bytes) -> dict:
    # The whole-file parse the buffered loader replaced.
    *lines, tail = data.split(b"\n")
    if tail:
        lines.append(tail)
    if not lines or lines[0] != _HEADER[:-1]:
        raise SnapshotError(1, "expected header 'smartauth-replaydb v1'")
    entries = {}
    width = previous = None
    for line_no, line in enumerate(lines[1:], start=2):
        id_text, _, hex_text = line.partition(b"\t")
        user_id = re.sub(rb"\\x([0-9a-f]{2})", lambda m: bytes((int(m[1], 16),)), id_text)
        try:
            raw = binascii.unhexlify(hex_text)
            canonical = runtime._entry_lines([user_id], [raw]) == line + b"\n"
        except ValueError as exc:
            raise SnapshotError(line_no, f"bad nonce: {exc}") from None
        if not canonical:
            raise SnapshotError(line_no, "not in the canonical form save_replay_db writes")
        if width is None:
            width = len(raw)
        elif len(raw) != width:
            raise SnapshotError(line_no, "inconsistent nonce width")
        if previous is not None and user_id <= previous:
            raise SnapshotError(line_no, "identity repeated or out of ascending order")
        previous = user_id
        entries[user_id] = Digest(raw)
    if tail:
        raise SnapshotError(len(lines), "missing final newline")
    return entries


def _load_outcome(load, source):
    """The loaded map, or the error's line number and message."""
    try:
        return load(source)
    except SnapshotError as err:
        return err.line_no, str(err)


_BOUNDARY_CASES = [
    b"",
    _HEADER[:-1],
    _HEADER[:-2],
    _HEADER,
    b"smartauth-replaydb v2\n",
    _HEADER + b"a\\x5cb\t0011\nc\\x20d\t2233\n",
    _HEADER + b"a\\x5cb\t0011\nc\\x20d\t2233",
    _HEADER + b"a\\x5Cb\t0011\nc\t2233",
    _HEADER + b"a\t0011\nb\\x41\t2233",
    _HEADER + b"a\\x41\t0011\n",
    _HEADER + b"a\\x4\t0011\n",
    _HEADER + b"a\t0011\r\n",
    _HEADER + b"\n",
    _HEADER + b"a\t\n",
    _HEADER + b"a\t00\t11\n",
    _HEADER + b"a\t0011\nb\t223344\n",
    _HEADER + b"b\t0011\na\t2233\n",
]


@pytest.mark.parametrize("read_bytes", [2, 3, 5, 7])
def test_snapshot_chunked_load_matches_the_whole_file_parse(tmp_path, monkeypatch, read_bytes):
    # Buffers this small put a boundary inside the header, a \xhh escape, the
    # tab, the nonce and just before the final line feed.  A buffer size of 1
    # asks binary ``open`` for line buffering, which it warns it does not do.
    monkeypatch.setattr(runtime, "_READ_BYTES", read_bytes)
    path = tmp_path / "db.snapshot"
    for data in _BOUNDARY_CASES:
        path.write_bytes(data)
        assert _load_outcome(load_replay_db, path) == _load_outcome(_whole_file_load, data), data


def test_snapshot_line_spanning_many_reads(tmp_path, monkeypatch):
    monkeypatch.setattr(runtime, "_READ_BYTES", 4093)
    long_id = b"x" * (4 << 20)
    path = tmp_path / "db.snapshot"
    for data in (
        _HEADER + b"a\t0011\n" + long_id + b"\t2233\n",
        _HEADER + b"a\t0011\n" + long_id + b"\\x41\t2233\n",
        _HEADER + b"a\t0011\n" + long_id + b"\t2233",
    ):
        path.write_bytes(data)
        assert _load_outcome(load_replay_db, path) == _load_outcome(_whole_file_load, data)


_ODD_SUFFIXES = (b"", b"\\", b" x", b"\x7f", b"\x80\xff")
_LF_ENTRY = 700  # the one identity with a raw line feed, in the first write batch only
_MIDDLE_ENTRY = 1501  # its identity ends in "\", written as the escape \x5c


def _odd_db():
    """3,000 entries whose identities need every kind of escape, one raw LF included."""
    return {
        b"user-%05d%s" % (i, b"\nlf" if i == _LF_ENTRY else _ODD_SUFFIXES[i % 5]): Digest(
            i.to_bytes(4, "big")
        )
        for i in range(3000)
    }


def _lf_db():
    """Eight edge identities, most with raw line feeds, four in each of two write batches."""
    identities = [b"%04d" % i for i in range(1500)] + [
        b"", b"\n", b"\n\n", b"\nx", b"x\n", b"\\\n", b"a\\x0a", b"\\x0a\n"
    ]
    return {identity: Digest(n.to_bytes(4, "big")) for n, identity in enumerate(identities)}


def test_snapshot_batches_write_the_per_entry_text(tmp_path):
    for db, lf_batches in ((_odd_db(), {0}), (_lf_db(), {0, 1})):
        identities = sorted(db)
        assert len(db) > runtime._WRITE_LINES
        assert {n // runtime._WRITE_LINES for n, i in enumerate(identities) if b"\n" in i} == (
            lf_batches
        )
        path = tmp_path / "db.snapshot"
        save_replay_db(_server(db), path)
        expected = _HEADER + b"".join(
            b"".join(
                bytes((b,)) if 0x21 <= b <= 0x7E and b != 0x5C else b"\\x%02x" % b
                for b in identity
            )
            + b"\t"
            + db[identity].hex().encode()
            + b"\n"
            for identity in identities
        )
        assert path.read_bytes() == expected
        assert load_replay_db(path) == db


def _corrupt(lines, kind):
    """Lines of the snapshot text, with the ``_MIDDLE_ENTRY`` line broken in one way."""
    lines = list(lines)
    m = _MIDDLE_ENTRY + 1  # index 0 is the header
    if kind == "uppercase-escape":
        lines[m] = lines[m].replace(b"\\x5c", b"\\x5C")
    elif kind == "needless-escape":
        lines[m] = lines[m].replace(b"user", b"\\x75ser")
    elif kind == "bad-hex":
        lines[m] = lines[m][:-1] + b"g"
    elif kind == "second-tab":
        lines[m] = lines[m][:-2] + b"\t" + lines[m][-2:]
    elif kind == "crlf":
        lines[m] += b"\r"
    elif kind == "other-width":
        lines[m] = lines[m][:-2]
    elif kind == "swapped":
        lines[m], lines[m + 1] = lines[m + 1], lines[m]
    elif kind == "duplicate":
        lines.insert(m + 1, lines[m])
    elif kind == "missing-final-newline":
        assert lines.pop() == b""
    return lines


@pytest.mark.parametrize(
    "kind",
    [
        "uppercase-escape", "needless-escape", "bad-hex", "second-tab", "crlf",
        "other-width", "swapped", "duplicate", "missing-final-newline",
    ],
)
def test_snapshot_bad_line_inside_a_chunk_is_named_like_the_whole_file_parse(
    tmp_path, monkeypatch, kind
):
    db = _odd_db()
    path = tmp_path / "db.snapshot"
    save_replay_db(_server(db), path)
    clean = path.read_bytes()
    data = b"\n".join(_corrupt(clean.split(b"\n"), kind))
    assert data != clean
    path.write_bytes(data)
    expected = _load_outcome(_whole_file_load, data)
    assert isinstance(expected, tuple)  # every corruption is an error
    for read_bytes in (64, 4093, 1 << 16):
        monkeypatch.setattr(runtime, "_READ_BYTES", read_bytes)
        assert _load_outcome(load_replay_db, path) == expected, read_bytes


def test_snapshot_clean_multi_chunk_file_loads_to_the_map(tmp_path, monkeypatch):
    db = _odd_db()
    path = tmp_path / "db.snapshot"
    save_replay_db(_server(db), path)
    for read_bytes in (64, 4093, 1 << 16):
        monkeypatch.setattr(runtime, "_READ_BYTES", read_bytes)
        loaded = load_replay_db(path)
        assert loaded == db
        assert all(type(nonce) is bytes for nonce in loaded.values())


def test_snapshot_save_and_load_hold_less_than_half_the_file(tmp_path):
    db = {
        b"user-%05d%s" % (i, b"\\ " if i % 10 == 0 else b""): Digest(i.to_bytes(32, "big"))
        for i in range(20_000)
    }
    server = _server(db)
    path = tmp_path / "db.snapshot"
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        save_replay_db(server, path)
        save_peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        loaded = load_replay_db(path)
        after, load_peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert loaded == db
    size = path.stat().st_size
    assert save_peak < size / 2
    assert load_peak - after < size / 2  # above the map the load returns

# --- channel ------------------------------------------------------------

def _sample_message():
    return baseline.LoginMessage(
        user_id=b"alice",
        masked_nonce=Digest(b"\x01" * 32),
        masked_pw_digest=Digest(b"\x02" * 32),
        checksum=Digest(b"\x03" * 32),
    )


def test_passive_channel_is_transparent_and_ordered():
    transcript = Transcript()
    channel = AdversarialChannel(transcript)
    m1, m2 = _sample_message(), _sample_message()
    assert channel.transmit("client", "server", m1) is m1
    assert channel.transmit("server", "client", m2) is m2
    assert channel.captured == [m1, m2]
    assert channel.sent == 2
    kinds = [e.kind for e in transcript.events]
    assert kinds == ["send", "receive", "send", "receive"]


def test_tamper_policy_flips_exactly_one_bit_once():
    transcript = Transcript()
    channel = AdversarialChannel(transcript, policy=Tamper("checksum", 9))
    message = _sample_message()
    delivered = channel.transmit("client", "server", message)
    assert delivered is not message
    assert bytes(delivered.checksum) == flip_bit(bytes(message.checksum), 9)
    assert delivered.masked_nonce == message.masked_nonce
    actions = [e.verdict for e in transcript.events if e.kind == "adversary-action"]
    assert actions == ["tamper:checksum:bit9"]
    assert channel.policy is None  # spent
    again = _sample_message()
    assert channel.transmit("client", "server", again) is again


def _send_and_receive(transcript):
    return [e for e in transcript.events if e.kind in ("send", "receive")]


def test_untampered_receive_shows_the_sent_fields():
    transcript = Transcript()
    AdversarialChannel(transcript).transmit("client", "server", _sample_message())
    send, receive = _send_and_receive(transcript)
    assert receive.fields == send.fields


def test_tampered_receive_shows_the_flipped_field():
    transcript = Transcript()
    channel = AdversarialChannel(transcript, policy=Tamper("checksum", 9))
    message = _sample_message()
    channel.transmit("client", "server", message)
    send, receive = _send_and_receive(transcript)
    flipped = flip_bit(bytes(message.checksum), 9)
    assert dict(send.fields)["checksum"] == message.checksum
    assert receive.fields == tuple(
        (name, flipped if name == "checksum" else value) for name, value in send.fields
    )


def test_tamper_policy_waits_for_a_message_with_the_field():
    transcript = Transcript()
    channel = AdversarialChannel(transcript, policy=Tamper("server_checksum", 0))
    login = _sample_message()
    assert channel.transmit("client", "server", login) is login  # not its target
    response = baseline.AuthResponse(Digest(b"\x04" * 32), Digest(b"\x05" * 32))
    delivered = channel.transmit("server", "client", response)
    assert delivered.server_checksum != response.server_checksum


def test_replay_is_logged_and_counted():
    transcript = Transcript()
    channel = AdversarialChannel(transcript)
    message = _sample_message()
    channel.transmit("client", "server", message)
    assert channel.replay(0, "server") is message
    assert channel.sent == 2
    adversary_events = [e for e in transcript.events if e.kind == "adversary-action"]
    assert [e.verdict for e in adversary_events] == ["replay:0"]
    # A message never captured is not replayed, and leaves no trace.
    events = list(transcript.events)
    with pytest.raises(IndexError):
        channel.replay(1, "server")
    assert (transcript.events, channel.sent) == (events, 2)


def test_flip_bit_involutive_and_bounded():
    data = b"\x00\xff\x10"
    assert flip_bit(flip_bit(data, 13), 13) == data
    assert flip_bit(data, 0) != data
    with pytest.raises(ValueError):
        flip_bit(data, 24)
    with pytest.raises(ValueError):
        flip_bit(data, -1)


def test_tamper_message_handles_bytes_fields():
    message = _sample_message()
    bad = tamper_message(message, "user_id", 3)
    assert bad.user_id != message.user_id
    assert len(bad.user_id) == len(message.user_id)


# --- transcript ---------------------------------------------------------

def test_event_render_is_stable():
    transcript = Transcript()
    transcript.add("client", "send", (("b_field", b"\x0a"), ("a_field", b"\xff")))
    transcript.add("server", "verify", verdict="checksum:ok")
    assert transcript.render() == (
        "step=0 actor=client kind=send a_field=ff b_field=0a verdict=-\n"
        "step=1 actor=server kind=verify verdict=checksum:ok\n"
    )
    event = transcript.events[1]
    for name in ("step", "actor", "kind", "fields", "verdict"):
        with pytest.raises(AttributeError):
            setattr(event, name, getattr(event, name))
    assert Event(3, "run", "accept").render() == "step=3 actor=run kind=accept verdict=-"


def test_transcript_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Transcript().add("client", "observe")


@pytest.mark.parametrize("scheme", [baseline, improved], ids=["baseline", "improved"])
@pytest.mark.parametrize("type_name", ["LoginMessage", "AuthResponse"])
def test_message_fields_hex_and_sorted(type_name, scheme):
    # The message's own values in declaration order, and nothing else; the
    # transcript sorts them by name, and rendering writes each one as hex.
    message_type = getattr(scheme, type_name)
    declared = dataclasses.fields(message_type)
    message = message_type(**{f.name: Digest(bytes([i]) * 32) for i, f in enumerate(declared, 1)})
    fields = message_fields(message)
    assert fields == tuple((f.name, getattr(message, f.name)) for f in declared)
    event = Transcript().add("client", "send", fields)
    assert [name for name, _ in event.fields] == sorted(name for name, _ in fields)
    rendered = event.render()
    assert all(f" {name}={value.hex()} " in rendered for name, value in fields)
