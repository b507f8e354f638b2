"""Property tests for the replay-database snapshot format.

Derandomized with a bounded example count, so every run checks the same
inputs and the suite stays deterministic.
"""

import pytest
from hypothesis import given, settings, strategies as st

from smartauth import Digest, ServerState, SnapshotError, load_replay_db, save_replay_db

HEADER = "smartauth-replaydb v1\n"

def _bounded(max_examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory):
    """One directory for the module: each example overwrites the same files."""
    return tmp_path_factory.mktemp("snapshots")


def _server(db):
    return ServerState(Digest(b"\xaa" * 4), Digest(b"\xbb" * 4), b"srv-test", dict(db))


# Maps with one nonce width: nonces are drawn at the widest width, then cut.
replay_dbs = st.tuples(
    st.integers(1, 8),
    st.dictionaries(st.binary(max_size=6), st.binary(min_size=8, max_size=8), max_size=6),
).map(lambda drawn: {user: Digest(nonce[: drawn[0]]) for user, nonce in drawn[1].items()})


# Whole ``identity<TAB>hex`` lines from small alphabets that mix canonical
# pieces (``a``, ``\x5c``, ``00``) with near misses (a needless escape, a bare
# backslash, an unknown, short or ``\u`` escape, a raw space or tab, non-ASCII
# text, uppercase, odd and empty hex).
_identities = st.lists(
    st.sampled_from(
        ["a", "b", "\\x5c", "\\x41", "\\", " ", "€", "\\q", "\\x4", "\\u0041", "\t"]
    ),
    max_size=3,
).map("".join)
_hexes = st.lists(st.sampled_from(["00", "0A", "1", ""]), max_size=2).map("".join)
_lines = st.tuples(_identities, _hexes).map(lambda pair: "\t".join(pair) + "\n")
snapshot_texts = st.lists(_lines, max_size=2).map(lambda lines: HEADER + "".join(lines))


@_bounded(50)
@given(db=replay_dbs)
def test_load_inverts_save(snapshot_dir, db):
    path = snapshot_dir / "db.snapshot"
    save_replay_db(_server(db), path)
    assert load_replay_db(path) == db


# 100 examples are enough for this strategy to find ``a\t00\n\t00\n``, a
# text that loads but is out of order, on a loader without the order check.
@_bounded(100)
@given(text=snapshot_texts)
def test_save_inverts_load_on_every_accepted_text(snapshot_dir, text):
    source = snapshot_dir / "in.snapshot"
    source.write_text(text, encoding="utf-8")
    try:
        loaded = load_replay_db(source)
    except SnapshotError:
        return
    resaved = snapshot_dir / "out.snapshot"
    save_replay_db(_server(loaded), resaved)
    assert resaved.read_text(encoding="utf-8") == text


@_bounded(50)
@given(
    data=st.one_of(
        st.binary(max_size=40),
        st.binary(max_size=40).map(lambda tail: HEADER.encode() + tail),
        snapshot_texts.map(lambda text: text.encode("utf-8")),
    )
)
def test_any_other_input_raises_snapshot_error(snapshot_dir, data):
    path = snapshot_dir / "db.snapshot"
    path.write_bytes(data)
    try:
        load_replay_db(path)
    except SnapshotError as err:
        assert 1 <= err.line_no <= data.count(b"\n") + 1
