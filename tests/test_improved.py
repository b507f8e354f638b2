"""The hardened scheme: local password gate, check ordering, and an
independent equation-by-equation oracle."""

import random
from dataclasses import fields as dataclass_fields, replace

import pytest

from smartauth import Digest, DigestRng, Reason, Rejected, baseline, improved
from smartauth.channel import tamper_message
from smartauth.protocol import STEP_FIELDS, Scheme

from support import FixedRng, exchange, make_setup, raw_hash, xor_bytes


def reference_run(width, user_id, password, biometric, salt, master_secret, shared, server_id, r_c, r_s):
    """Recompute every protocol value of the hardened scheme from scratch.

    Pure bytes in, dict of named raw values out; shares no code with the
    implementation beyond the hash function's mathematical definition.
    """
    h = lambda *parts: raw_hash(width, *parts)
    x = xor_bytes
    v = {}
    v["pw_digest"] = h(salt, password)
    v["bio_template"] = h(biometric)
    v["verifier"] = h(v["pw_digest"], v["bio_template"])
    v["identity_key"] = h(user_id, master_secret)
    v["sealed_key"] = x(v["identity_key"], v["verifier"])
    v["unsealed"] = x(v["sealed_key"], v["verifier"])  # what the card recovers
    v["masked_nonce"] = x(v["unsealed"], r_c)
    v["nonce_tag"] = h(shared, r_c)
    v["masked_pw_digest"] = x(v["pw_digest"], v["nonce_tag"])
    v["checksum"] = h(v["masked_nonce"], v["nonce_tag"], v["masked_pw_digest"])
    v["srv_identity_key"] = h(user_id, master_secret)
    v["srv_client_nonce"] = x(v["masked_nonce"], v["srv_identity_key"])
    v["srv_nonce_tag"] = h(shared, v["srv_client_nonce"])
    v["srv_pw_digest"] = x(v["masked_pw_digest"], v["srv_nonce_tag"])
    v["masked_server_nonce"] = x(
        x(h(v["srv_pw_digest"], server_id, shared), v["srv_nonce_tag"]), r_s
    )
    v["server_nonce_tag"] = h(shared, r_s)
    v["server_checksum"] = h(v["srv_identity_key"], v["srv_pw_digest"], shared, r_s)
    v["srv_session_key"] = h(v["srv_pw_digest"], v["srv_nonce_tag"], r_s, server_id)
    v["cli_server_nonce"] = x(
        x(h(v["pw_digest"], server_id, shared), v["nonce_tag"]), v["masked_server_nonce"]
    )
    v["cli_server_nonce_tag"] = h(shared, v["cli_server_nonce"])
    v["cli_session_key"] = h(v["pw_digest"], v["nonce_tag"], v["cli_server_nonce"], server_id)
    return v


def run_against_reference(width, seed):
    """One forced-nonce run of the implementation, compared field by field."""
    rnd = random.Random(seed)
    user_id = b"ref-user-%d" % seed
    password, biometric = b"ref-pw", b"ref-thumb"
    salt = rnd.randbytes(16)
    r_c, r_s = Digest(rnd.randbytes(width)), Digest(rnd.randbytes(width))
    s = make_setup(improved, seed=seed, digest_size=width)
    card = improved.register(
        s.hasher, s.rc, user_id, password, biometric, FixedRng(salts=[salt])
    )
    ref = reference_run(
        width, user_id, password, biometric, salt,
        bytes(s.rc.master_secret), bytes(s.rc.shared_secret), s.server_id,
        bytes(r_c), bytes(r_s),
    )
    assert bytes(card.bio_template) == ref["bio_template"]
    assert bytes(card.verifier) == ref["verifier"]
    assert bytes(card.sealed_key) == ref["sealed_key"]

    message, client_session = improved.login(
        s.hasher, card, user_id, password, biometric, FixedRng(digests=[r_c])
    )
    assert bytes(client_session.identity_key) == ref["unsealed"] == ref["identity_key"]
    assert bytes(message.masked_nonce) == ref["masked_nonce"]
    assert bytes(message.nonce_tag) == ref["nonce_tag"]
    assert bytes(message.masked_pw_digest) == ref["masked_pw_digest"]
    assert bytes(message.checksum) == ref["checksum"]

    response, server_session = improved.authenticate(
        s.hasher, s.server, message, FixedRng(digests=[r_s])
    )
    assert bytes(server_session.identity_key) == ref["srv_identity_key"]
    assert bytes(server_session.client_nonce) == ref["srv_client_nonce"] == bytes(r_c)
    assert bytes(server_session.nonce_tag) == ref["srv_nonce_tag"] == ref["nonce_tag"]
    assert bytes(server_session.pw_digest) == ref["srv_pw_digest"] == ref["pw_digest"]
    assert bytes(response.masked_server_nonce) == ref["masked_server_nonce"]
    assert bytes(response.server_nonce_tag) == ref["server_nonce_tag"]
    assert bytes(response.server_checksum) == ref["server_checksum"]
    assert bytes(server_session.session_key) == ref["srv_session_key"]

    client_key = improved.verify_server(
        s.hasher, client_session, card, response, s.server_id
    )
    assert bytes(client_session.server_nonce) == ref["cli_server_nonce"] == bytes(r_s)
    assert bytes(response.server_nonce_tag) == ref["cli_server_nonce_tag"]
    assert bytes(client_key) == ref["cli_session_key"] == ref["srv_session_key"]


def test_full_protocol_matches_independent_reference():
    for seed in (0, 1, 2):
        run_against_reference(32, seed)


def test_full_protocol_matches_reference_at_toy_widths():
    for width in (1, 2):
        run_against_reference(width, seed=5)


@pytest.mark.parametrize("width", [32, 1, 2])
@pytest.mark.parametrize("mod", [baseline, improved], ids=["baseline", "improved"])
def test_honest_exchange_ends_with_equal_sessions(mod, width):
    for seed in range(10):
        key, server_session, client_session = exchange(mod, make_setup(mod, seed, width))
        assert client_session == server_session
        assert key == client_session.session_key


def test_registration_matches_baseline_except_verifier():
    s = make_setup(improved, seed=20)
    base_card = baseline.register(
        s.hasher, s.rc, s.user_id, s.password, s.biometric, DigestRng(20, 32)
    )
    imp_card = improved.register(
        s.hasher, s.rc, s.user_id, s.password, s.biometric, DigestRng(20, 32)
    )
    assert imp_card.bio_template == base_card.bio_template
    assert imp_card.sealed_key == base_card.sealed_key
    assert imp_card.shared_secret == base_card.shared_secret
    assert imp_card.salt == base_card.salt
    assert imp_card.verifier == s.hasher.hash_uncounted(
        s.hasher.hash_uncounted(imp_card.salt, s.password), imp_card.bio_template
    )


def test_wrong_password_rejected_locally_before_any_message():
    s = make_setup(improved, seed=21)
    with pytest.raises(Rejected) as err:
        improved.login(s.hasher, s.card, s.user_id, b"totally-wrong", s.biometric, s.rng)
    assert err.value.reason is Reason.WRONG_PASSWORD
    assert err.value.local
    with pytest.raises(Rejected) as err:
        improved.login(s.hasher, s.card, s.user_id, s.password, b"wrong-thumb", s.rng)
    assert err.value.reason is Reason.BIOMETRIC_MISMATCH


def test_wire_exposes_salted_password_digest():
    # The nonce tag rides in clear next to the masked password digest, so
    # any eavesdropper can unmask the latter.  Every card also carries the
    # same shared secret, so any other cardholder who sees one exchange goes
    # on to recover the victim's session key.  Faithfully reproduced, and
    # pinned here so nobody fixes it by accident.
    s = make_setup(improved, seed=22)
    message, client_session = improved.login(
        s.hasher, s.card, s.user_id, s.password, s.biometric, s.rng
    )
    response, server_session = improved.authenticate(s.hasher, s.server, message, s.rng)
    client_key = improved.verify_server(s.hasher, client_session, s.card, response, s.server_id)

    insider_card = improved.register(s.hasher, s.rc, b"mallory", b"own-pw", b"own-thumb", s.rng)
    shared = bytes(insider_card.shared_secret)
    nonce_tag = bytes(message.nonce_tag)
    # Step 1: unmask the salted password digest.
    pw_digest = xor_bytes(bytes(message.masked_pw_digest), nonce_tag)
    assert pw_digest == bytes(client_session.pw_digest)
    # Step 2: unblind the server nonce with the shared secret.
    blind = raw_hash(32, pw_digest, s.server_id, shared)
    server_nonce = xor_bytes(xor_bytes(blind, nonce_tag), bytes(response.masked_server_nonce))
    assert server_nonce == bytes(server_session.server_nonce)
    # Step 3: derive the session key exactly as both ends do.
    key = raw_hash(32, pw_digest, nonce_tag, server_nonce, s.server_id)
    assert key == bytes(server_session.session_key) == bytes(client_key)


def test_server_checks_nonce_tag_before_checksum():
    s = make_setup(improved, seed=23)
    message, _ = improved.login(s.hasher, s.card, s.user_id, s.password, s.biometric, s.rng)

    # Flipping the masked nonce breaks both checks; the nonce tag fires first.
    bad = tamper_message(message, "masked_nonce", 17)
    with pytest.raises(Rejected) as err:
        improved.authenticate(s.hasher, s.server, bad, s.rng)
    assert err.value.reason is Reason.NONCE_TAG_MISMATCH

    # Flipping the masked password digest leaves the nonce tag valid.
    bad = tamper_message(message, "masked_pw_digest", 17)
    with pytest.raises(Rejected) as err:
        improved.authenticate(s.hasher, s.server, bad, s.rng)
    assert err.value.reason is Reason.CHECKSUM_MISMATCH


def test_client_checks_server_nonce_tag_before_checksum():
    s = make_setup(improved, seed=24)
    message, client_session = improved.login(
        s.hasher, s.card, s.user_id, s.password, s.biometric, s.rng
    )
    response, _ = improved.authenticate(s.hasher, s.server, message, s.rng)

    bad = tamper_message(response, "masked_server_nonce", 5)
    with pytest.raises(Rejected) as err:
        improved.verify_server(s.hasher, client_session, s.card, bad, s.server_id)
    assert err.value.reason is Reason.SERVER_NONCE_TAG_MISMATCH

    bad = tamper_message(response, "server_checksum", 5)
    with pytest.raises(Rejected) as err:
        improved.verify_server(s.hasher, client_session, s.card, bad, s.server_id)
    assert err.value.reason is Reason.SERVER_CHECKSUM_MISMATCH


def test_every_wire_field_tamper_rejected():
    rnd = random.Random(25)
    s = make_setup(improved, seed=25)
    login_fields = ["user_id", "masked_nonce", "nonce_tag", "masked_pw_digest", "checksum"]
    response_fields = ["masked_server_nonce", "server_nonce_tag", "server_checksum"]
    for _ in range(100):
        message, client_session = improved.login(
            s.hasher, s.card, s.user_id, s.password, s.biometric, s.rng
        )
        field = rnd.choice(login_fields + response_fields)
        if field in login_fields:
            nbits = len(getattr(message, field)) * 8
            bad = tamper_message(message, field, rnd.randrange(nbits))
            with pytest.raises(Rejected):
                improved.authenticate(s.hasher, s.server, bad, s.rng)
        else:
            response, _ = improved.authenticate(s.hasher, s.server, message, s.rng)
            bad = tamper_message(response, field, rnd.randrange(256))
            with pytest.raises(Rejected):
                improved.verify_server(s.hasher, client_session, s.card, bad, s.server_id)


def test_biometric_longer_than_255_bytes_registers_and_logs_in():
    # register hashes the sample whole, so it is framed with the long length prefix.
    s = replace(make_setup(improved, seed=27), biometric=b"b" * 300)
    s.card = improved.register(s.hasher, s.rc, s.user_id, s.password, s.biometric, s.rng)
    client_key, server_session, _ = exchange(improved, s)
    assert client_key == server_session.session_key


def test_change_password_wrong_old_leaves_card_byte_identical():
    s = make_setup(improved, seed=26)
    with pytest.raises(Rejected) as err:
        improved.change_password(s.hasher, s.card, s.biometric, b"not-it", b"new-pw")
    assert err.value.reason is Reason.WRONG_PASSWORD
    # Frozen dataclass equality is field-by-field, i.e. byte-identical.
    assert s.card == make_setup(improved, seed=26).card
    client_key, server_session, _ = exchange(improved, s)
    assert client_key == server_session.session_key


def test_change_password_updates_sealed_key_and_verifier_together():
    s = make_setup(improved, seed=27)
    new_password = b"fresh-password"
    identity_key = xor_bytes(s.card.sealed_key, s.card.verifier)
    new_card = improved.change_password(
        s.hasher, s.card, s.biometric, s.password, new_password
    )
    expected_verifier = s.hasher.hash_uncounted(
        s.hasher.hash_uncounted(new_card.salt, new_password), new_card.bio_template
    )
    assert new_card.verifier == expected_verifier
    assert new_card.sealed_key == xor_bytes(identity_key, expected_verifier)
    # Old password is now rejected locally; the new one authenticates.
    with pytest.raises(Rejected) as err:
        improved.login(s.hasher, new_card, s.user_id, s.password, s.biometric, s.rng)
    assert err.value.reason is Reason.WRONG_PASSWORD
    s.card = new_card
    client_key, server_session, _ = exchange(improved, s, new_password)
    assert client_key == server_session.session_key


def test_extract_identity_key_equals_server_side_derivation():
    s = make_setup(improved, seed=28)
    expected = raw_hash(32, s.user_id, bytes(s.rc.master_secret))
    assert bytes(improved.extract_identity_key(s.card)) == expected
    changed = improved.change_password(s.hasher, s.card, s.biometric, s.password, b"next-pw")
    assert bytes(improved.extract_identity_key(changed)) == expected


def test_stolen_card_alone_impersonates_the_user():
    # The server never checks the password digest: it only unmasks it and
    # mixes it into the key.  So the card alone is enough to log in, with
    # no password and no biometric: its identity key and shared secret
    # forge every other login field.  Faithfully reproduced, and pinned
    # here so nobody fixes it by accident.
    s = make_setup(improved, seed=30)
    identity_key = bytes(improved.extract_identity_key(s.card))
    shared = bytes(s.card.shared_secret)
    rnd = random.Random(30)
    client_nonce = rnd.randbytes(32)
    masked_nonce = xor_bytes(identity_key, client_nonce)
    nonce_tag = raw_hash(32, shared, client_nonce)
    masked_pw_digest = rnd.randbytes(32)  # any value: nothing checks it
    checksum = raw_hash(32, masked_nonce, nonce_tag, masked_pw_digest)
    # The user id is the only other input, and every login sends it in clear.
    forged = improved.LoginMessage(
        user_id=s.user_id,
        masked_nonce=Digest(masked_nonce),
        nonce_tag=Digest(nonce_tag),
        masked_pw_digest=Digest(masked_pw_digest),
        checksum=Digest(checksum),
    )
    response, session = improved.authenticate(s.hasher, s.server, forged, s.rng)

    # The thief unblinds the server nonce, sees the server's own checks
    # pass, and derives the session key the server now holds.
    pw_digest = xor_bytes(masked_pw_digest, nonce_tag)
    blind = raw_hash(32, pw_digest, s.server_id, shared)
    server_nonce = xor_bytes(xor_bytes(blind, nonce_tag), bytes(response.masked_server_nonce))
    assert raw_hash(32, shared, server_nonce) == bytes(response.server_nonce_tag)
    assert raw_hash(32, identity_key, pw_digest, shared, server_nonce) == bytes(
        response.server_checksum
    )
    key = raw_hash(32, pw_digest, nonce_tag, server_nonce, s.server_id)
    assert key == bytes(session.session_key)


def test_hash_count_delta_against_baseline_is_two():
    counts = {}
    for mod in (baseline, improved):
        s = make_setup(mod, seed=29)
        before = s.hasher.count  # registration hashes on the same hasher
        exchange(mod, s)
        counts[mod.__name__] = s.hasher.count - before
    assert counts["smartauth.improved"] - counts["smartauth.baseline"] == 2


def _field_names(cls):
    return [f.name for f in dataclass_fields(cls)]


def test_card_and_wire_types_are_the_hardened_ones_less_the_step_fields():
    # Field order matters: the tamper scenario picks a field by its position.
    assert _field_names(baseline.Card) == ["bio_template", "sealed_key", "shared_secret", "salt"]
    assert _field_names(improved.Card) == [
        "bio_template", "verifier", "sealed_key", "shared_secret", "salt"
    ]
    assert _field_names(baseline.LoginMessage) == [
        "user_id", "masked_nonce", "masked_pw_digest", "checksum"
    ]
    assert _field_names(improved.LoginMessage) == [
        "user_id", "masked_nonce", "nonce_tag", "masked_pw_digest", "checksum"
    ]
    assert _field_names(baseline.AuthResponse) == ["masked_server_nonce", "server_checksum"]
    assert _field_names(improved.AuthResponse) == [
        "masked_server_nonce", "server_nonce_tag", "server_checksum"
    ]

    unhardened, hardened = Scheme(hardened=False), improved.SCHEME
    assert set(STEP_FIELDS) == {"verifier", "nonce_tag", "server_nonce_tag"}
    for attr in ("card", "login_message", "auth_response"):
        expected = [n for n in _field_names(getattr(hardened, attr)) if n not in STEP_FIELDS]
        assert _field_names(getattr(unhardened, attr)) == expected
    assert improved.SCHEME.card is improved.Card
    assert improved.SCHEME.login_message is improved.LoginMessage
    assert improved.SCHEME.auth_response is improved.AuthResponse
    assert unhardened.card is baseline.Card  # the baseline types are built once
