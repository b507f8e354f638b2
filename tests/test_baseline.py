"""The original scheme: honest-path identities and its reproducible flaws."""

import random
from dataclasses import replace

import pytest

from smartauth import Digest, DigestRng, Reason, Rejected, baseline, improved
from smartauth.channel import tamper_message

from support import FixedRng, exchange, make_setup, raw_hash, xor_bytes


def test_register_seals_identity_key_under_password_verifier():
    s = make_setup(baseline, seed=1)
    card = s.card
    pw_digest = raw_hash(32, card.salt, s.password)
    bio_template = raw_hash(32, s.biometric)
    verifier = raw_hash(32, pw_digest, bio_template)
    identity_key = raw_hash(32, s.user_id, bytes(s.rc.master_secret))
    assert bytes(card.bio_template) == bio_template
    assert bytes(card.sealed_key) == xor_bytes(identity_key, verifier)
    assert card.shared_secret == s.rc.shared_secret
    assert len(card.salt) == 16
    assert not hasattr(card, "verifier")


def test_register_rejects_malformed_inputs():
    s = make_setup(baseline)
    for bad_id in (b"", b"a" * 65, b"has space", b"tab\there", b"\x80high"):
        with pytest.raises(Rejected) as err:
            baseline.register(s.hasher, s.rc, bad_id, b"pw", b"bio", s.rng)
        assert err.value.reason is Reason.BAD_ID_FORMAT
    with pytest.raises(ValueError):
        baseline.register(s.hasher, s.rc, b"ok", b"", b"bio", s.rng)
    with pytest.raises(ValueError):
        baseline.register(s.hasher, s.rc, b"ok", b"p" * 65, b"bio", s.rng)
    with pytest.raises(ValueError):
        baseline.register(s.hasher, s.rc, b"ok", b"pw", b"", s.rng)


@pytest.mark.parametrize("mod", [baseline, improved], ids=["baseline", "improved"])
@pytest.mark.parametrize("length", [1, 64])
def test_register_and_login_accept_the_shortest_and_longest_password(mod, length):
    s = replace(make_setup(mod), password=b"p" * length)
    s.card = mod.register(s.hasher, s.rc, s.user_id, s.password, s.biometric, s.rng)
    client_key, server_session, _ = exchange(mod, s)
    assert client_key == server_session.session_key


def test_register_with_different_rng_seeds_differs():
    s1 = make_setup(baseline, seed=10)
    card2 = baseline.register(
        s1.hasher, s1.rc, s1.user_id, s1.password, s1.biometric, DigestRng(777, 32)
    )
    assert card2.salt != s1.card.salt
    assert card2.sealed_key != s1.card.sealed_key
    assert card2.bio_template == s1.card.bio_template  # same biometric, no salt in it


def test_honest_exchange_recovers_all_values():
    s = make_setup(baseline, seed=2)
    message, client_session = baseline.login(
        s.hasher, s.card, s.user_id, s.password, s.biometric, s.rng
    )
    response, server_session = baseline.authenticate(s.hasher, s.server, message, s.rng)
    client_key = baseline.verify_server(
        s.hasher, client_session, s.card, response, s.server_id
    )
    assert server_session.client_nonce == client_session.client_nonce
    assert server_session.nonce_tag == client_session.nonce_tag
    assert server_session.pw_digest == client_session.pw_digest
    assert server_session.identity_key == client_session.identity_key
    assert client_session.server_nonce == server_session.server_nonce
    assert client_key == server_session.session_key


def test_biometric_gate_is_the_only_local_check():
    s = make_setup(baseline, seed=3)
    with pytest.raises(Rejected) as err:
        baseline.login(s.hasher, s.card, s.user_id, s.password, b"someone-else", s.rng)
    assert err.value.reason is Reason.BIOMETRIC_MISMATCH
    # A wrong password sails through the card: the message still goes out.
    message, _ = baseline.login(
        s.hasher, s.card, s.user_id, b"totally-wrong", s.biometric, s.rng
    )
    assert message.user_id == s.user_id


def test_wrong_password_rejected_only_at_the_server():
    s = make_setup(baseline, seed=4)
    message, _ = baseline.login(
        s.hasher, s.card, s.user_id, b"totally-wrong", s.biometric, s.rng
    )
    with pytest.raises(Rejected) as err:
        baseline.authenticate(s.hasher, s.server, message, s.rng)
    assert err.value.reason is Reason.CHECKSUM_MISMATCH
    assert s.user_id not in s.server.replay_db  # nothing stored on a failed check


def test_server_reject_reasons_are_distinguishable():
    s = make_setup(baseline, seed=5)
    message, _ = baseline.login(s.hasher, s.card, s.user_id, s.password, s.biometric, s.rng)

    bad_id = replace(message, user_id=b"has space")
    with pytest.raises(Rejected) as err:
        baseline.authenticate(s.hasher, s.server, bad_id, s.rng)
    assert err.value.reason is Reason.BAD_ID_FORMAT

    bad_checksum = tamper_message(message, "checksum", 0)
    with pytest.raises(Rejected) as err:
        baseline.authenticate(s.hasher, s.server, bad_checksum, s.rng)
    assert err.value.reason is Reason.CHECKSUM_MISMATCH

    baseline.authenticate(s.hasher, s.server, message, s.rng)
    with pytest.raises(Rejected) as err:
        baseline.authenticate(s.hasher, s.server, message, s.rng)
    assert err.value.reason is Reason.REPLAY


def test_tampered_response_rejected_by_client():
    rnd = random.Random(6)
    s = make_setup(baseline, seed=6)
    for _ in range(100):
        message, client_session = baseline.login(
            s.hasher, s.card, s.user_id, s.password, s.biometric, s.rng
        )
        response, _ = baseline.authenticate(s.hasher, s.server, message, s.rng)
        field = rnd.choice(["masked_server_nonce", "server_checksum"])
        bad = tamper_message(response, field, rnd.randrange(256))
        with pytest.raises(Rejected) as err:
            baseline.verify_server(s.hasher, client_session, s.card, bad, s.server_id)
        assert err.value.reason is Reason.SERVER_AUTH_FAILED


def test_replay_rejected_then_fresh_login_replaces_entry():
    s = make_setup(baseline, seed=7)
    message, _ = baseline.login(s.hasher, s.card, s.user_id, s.password, s.biometric, s.rng)
    baseline.authenticate(s.hasher, s.server, message, s.rng)
    first_nonce = s.server.replay_db[s.user_id]

    with pytest.raises(Rejected) as err:
        baseline.authenticate(s.hasher, s.server, message, s.rng)
    assert err.value.reason is Reason.REPLAY
    assert s.server.replay_db[s.user_id] == first_nonce

    message2, _ = baseline.login(s.hasher, s.card, s.user_id, s.password, s.biometric, s.rng)
    baseline.authenticate(s.hasher, s.server, message2, s.rng)
    assert s.server.replay_db[s.user_id] != first_nonce


def test_stolen_card_and_one_captured_login_allow_offline_password_guessing():
    # Each guess gives a verifier, hence an identity key, client nonce and
    # nonce tag; only the right guess reproduces the captured checksum.
    # Four hashes per guess, with no server in the loop.  Faithfully
    # reproduced, and pinned here so nobody fixes it by accident.
    s = make_setup(baseline, seed=15)
    captured, _ = baseline.login(s.hasher, s.card, s.user_id, s.password, s.biometric, s.rng)
    card = s.card
    shared = bytes(card.shared_secret)
    masked_nonce = bytes(captured.masked_nonce)
    masked_pw_digest = bytes(captured.masked_pw_digest)

    def matches(guess: bytes) -> bool:
        pw_digest = raw_hash(32, card.salt, guess)
        verifier = raw_hash(32, pw_digest, bytes(card.bio_template))
        client_nonce = xor_bytes(masked_nonce, xor_bytes(bytes(card.sealed_key), verifier))
        nonce_tag = raw_hash(32, shared, client_nonce)
        return raw_hash(32, masked_nonce, nonce_tag, masked_pw_digest) == captured.checksum

    rnd = random.Random(15)
    letters = b"abcdefghijklmnopqrstuvwxyz0123456789-"
    words = {bytes(rnd.choices(letters, k=rnd.randint(6, 14))) for _ in range(1000)}
    words.add(s.password)
    dictionary = sorted(words)
    assert len(dictionary) > 1000
    assert [guess for guess in dictionary if matches(guess)] == [s.password]


def test_change_password_with_correct_old_keeps_the_card_working():
    s = make_setup(baseline, seed=8)
    new_password = b"brand-new-pw"
    s.card = baseline.change_password(s.hasher, s.card, s.biometric, s.password, new_password)
    client_key, server_session, _ = exchange(baseline, s, new_password)
    assert client_key == server_session.session_key


def test_change_password_wrong_old_corrupts_the_card_permanently():
    s = make_setup(baseline, seed=9)
    corrupted = baseline.change_password(
        s.hasher, s.card, s.biometric, b"not-the-password", b"new-pw"
    )
    assert corrupted != s.card  # the update happened anyway
    s.card = corrupted
    # Neither the new nor the old password works, and retrying never helps.
    for _ in range(3):
        for password in (b"new-pw", s.password):
            message, _ = baseline.login(
                s.hasher, s.card, s.user_id, password, s.biometric, s.rng
            )
            with pytest.raises(Rejected) as err:
                baseline.authenticate(s.hasher, s.server, message, s.rng)
            assert err.value.reason is Reason.CHECKSUM_MISMATCH


def test_change_password_checks_biometric_and_new_password_shape():
    s = make_setup(baseline, seed=11)
    with pytest.raises(Rejected) as err:
        baseline.change_password(s.hasher, s.card, b"wrong-thumb", s.password, b"new")
    assert err.value.reason is Reason.BIOMETRIC_MISMATCH
    with pytest.raises(ValueError):
        baseline.change_password(s.hasher, s.card, s.biometric, s.password, b"")


def test_forced_nonces_reproduce_reference_equations():
    s = make_setup(baseline, seed=12)
    r_c, r_s = Digest(bytes(range(32))), Digest(bytes(range(32, 64)))
    message, client_session = baseline.login(
        s.hasher, s.card, s.user_id, s.password, s.biometric, FixedRng(digests=[r_c])
    )
    assert message.masked_nonce == xor_bytes(client_session.identity_key, r_c)
    response, server_session = baseline.authenticate(
        s.hasher, s.server, message, FixedRng(digests=[r_s])
    )
    assert server_session.client_nonce == r_c
    assert server_session.nonce_tag == client_session.nonce_tag
    assert server_session.server_nonce == r_s
    client_key = baseline.verify_server(
        s.hasher, client_session, s.card, response, s.server_id
    )
    assert client_session.server_nonce == r_s
    assert client_key == server_session.session_key
