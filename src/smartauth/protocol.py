"""The challenge-response protocol, written once for both schemes.

A ``Scheme`` says only whether it is hardened.  The hardened scheme adds
three steps, each written at its two ends: the card stores the password
verifier when sealing the key and checks it when unsealing, the login
carries the nonce tag the server checks first, and the response carries
a server-nonce tag the client checks first.  Every other step, hash call
and nonce draw is shared, and an honest exchange ends with the two
sides' ``Session`` records equal.

Each check site reports its decision to an optional ``probe(check,
failure)`` before acting on it: ``failure`` is ``None`` when the named
check passed, or the ``Reason`` about to be raised.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields, make_dataclass, replace

from .hashing import Digest, DigestRng, Hasher
from .runtime import (
    Reason,
    Rejected,
    RegistrationCenter,
    ServerState,
    check_credentials,
    check_id_format,
    check_password,
    replay_check_and_store,
)

Probe = Callable[[str, "Reason | None"], None]


@dataclass(frozen=True)
class Card:
    """Contents of an issued smart card."""

    bio_template: Digest   # hash of the enrolled biometric sample
    verifier: Digest       # salted-password digest bound to the biometric template
    sealed_key: Digest     # identity key XOR password verifier
    shared_secret: Digest  # server secret mirrored onto the card
    salt: bytes            # 16-byte salt mixed into the password digest


@dataclass(frozen=True)
class LoginMessage:
    user_id: bytes
    masked_nonce: Digest      # client nonce XOR recovered identity key
    nonce_tag: Digest         # sent in clear; the server checks it before anything else
    masked_pw_digest: Digest  # salted password digest XOR nonce tag
    checksum: Digest          # binds the two masked fields and the tag


@dataclass(frozen=True)
class AuthResponse:
    masked_server_nonce: Digest
    server_nonce_tag: Digest  # tag over the server nonce under the shared secret
    server_checksum: Digest


# The field each hardening step adds to the card, the login and the response.
# The baseline's types are the hardened ones without them, in the same order.
STEP_FIELDS = ("verifier", "nonce_tag", "server_nonce_tag")


def _without_steps(cls: type) -> type:
    kept = [(f.name, f.type) for f in fields(cls) if f.name not in STEP_FIELDS]
    return make_dataclass(cls.__name__, kept, frozen=True, namespace={"__module__": __name__})


_HARDENED_TYPES = (Card, LoginMessage, AuthResponse)
_TYPES = {True: _HARDENED_TYPES, False: tuple(map(_without_steps, _HARDENED_TYPES))}


@dataclass
class Session:
    """One side's working values; the client fills the last two once the response checks out."""

    identity_key: Digest
    client_nonce: Digest
    nonce_tag: Digest
    pw_digest: Digest
    server_nonce: Digest | None = None
    session_key: Digest | None = None


def _decide(probe: Probe | None, check: str, passed: bool, reason: Reason) -> None:
    """Report one check to the probe, then raise if it failed."""
    failure = None if passed else reason
    if probe is not None:
        probe(check, failure)
    if failure is not None:
        raise Rejected(failure)


def _check_biometric(hasher: Hasher, card, bio_sample: bytes, probe: Probe | None) -> None:
    passed = hasher.hash_uncounted(bio_sample) == card.bio_template
    _decide(probe, "biometric", passed, Reason.BIOMETRIC_MISMATCH)


def _verifier(
    hasher: Hasher, salt: bytes, bio_template: Digest, password: bytes
) -> tuple[Digest, Digest]:
    """The salted password digest and the verifier it yields with this biometric template."""
    pw_digest = hasher.hash(salt, password)
    return pw_digest, hasher.hash(pw_digest, bio_template)


def extract_identity_key(card) -> Digest:
    """What a thief learns from any card that stores the verifier: sealed key XOR verifier."""
    return card.sealed_key ^ card.verifier


class Scheme:
    """One scheme: whether it is hardened, and the card and wire types that follow."""

    def __init__(self, hardened: bool) -> None:
        self.hardened = hardened
        self.card, self.login_message, self.auth_response = _TYPES[hardened]

    def _seal(self, identity_key: Digest, verifier: Digest) -> dict[str, Digest]:
        """The card fields that seal the identity key under a password verifier."""
        # Only a hardened card keeps the verifier, to check passwords against.
        stored = {"verifier": verifier} if self.hardened else {}
        return {"sealed_key": identity_key ^ verifier, **stored}

    def _unseal(
        self, hasher: Hasher, card, password: bytes, probe: Probe | None
    ) -> tuple[Digest, Digest]:
        """The password digest and the identity key the card unseals under this password."""
        pw_digest, verifier = _verifier(hasher, card.salt, card.bio_template, password)
        if self.hardened:
            _decide(probe, "password", verifier == card.verifier, Reason.WRONG_PASSWORD)
        return pw_digest, card.sealed_key ^ verifier

    def register(
        self,
        hasher: Hasher,
        rc: RegistrationCenter,
        user_id: bytes,
        password: bytes,
        biometric: bytes,
        rng: DigestRng,
    ):
        """Enrol a user and issue a card (modelled as a direct secure call)."""
        check_credentials(user_id, password, biometric)
        salt = rng.salt()
        bio_template = hasher.hash(biometric)
        _, verifier = _verifier(hasher, salt, bio_template, password)
        identity_key = hasher.hash(user_id, rc.master_secret)
        return self.card(
            bio_template=bio_template,
            shared_secret=rc.shared_secret,
            salt=salt,
            **self._seal(identity_key, verifier),
        )

    def login(
        self,
        hasher: Hasher,
        card,
        user_id: bytes,
        password: bytes,
        bio_sample: bytes,
        rng: DigestRng,
        probe: Probe | None = None,
    ) -> tuple[object, Session]:
        """Build a login request after the card's local checks.

        Without the hardening a wrong password yields a wrong verifier and
        hence a garbled identity key, but the card has no stored value to
        compare against and sends the message regardless.
        """
        _check_biometric(hasher, card, bio_sample, probe)
        pw_digest, identity_key = self._unseal(hasher, card, password, probe)
        client_nonce = rng.digest()
        masked_nonce = identity_key ^ client_nonce
        nonce_tag = hasher.hash(card.shared_secret, client_nonce)
        masked_pw_digest = pw_digest ^ nonce_tag
        checksum = hasher.hash(masked_nonce, nonce_tag, masked_pw_digest)
        in_clear = {"nonce_tag": nonce_tag} if self.hardened else {}
        message = self.login_message(
            user_id=user_id,
            masked_nonce=masked_nonce,
            masked_pw_digest=masked_pw_digest,
            checksum=checksum,
            **in_clear,
        )
        return message, Session(identity_key, client_nonce, nonce_tag, pw_digest)

    def authenticate(
        self,
        hasher: Hasher,
        server: ServerState,
        message,
        rng: DigestRng,
        probe: Probe | None = None,
    ) -> tuple[object, Session]:
        """Check a login request and answer it; raises Rejected on any failure."""
        _decide(probe, "id-format", check_id_format(message.user_id), Reason.BAD_ID_FORMAT)
        identity_key = hasher.hash(message.user_id, server.master_secret)
        client_nonce = message.masked_nonce ^ identity_key
        nonce_tag = hasher.hash(server.shared_secret, client_nonce)
        if self.hardened:
            _decide(probe, "nonce-tag", nonce_tag == message.nonce_tag, Reason.NONCE_TAG_MISMATCH)
        checksum = hasher.hash(message.masked_nonce, nonce_tag, message.masked_pw_digest)
        _decide(probe, "checksum", checksum == message.checksum, Reason.CHECKSUM_MISMATCH)
        # The nonce is stored only after the message authenticated, so forged
        # messages cannot poison the replay database.
        fresh = replay_check_and_store(server, message.user_id, client_nonce)
        _decide(probe, "nonce-freshness", fresh, Reason.REPLAY)
        pw_digest = message.masked_pw_digest ^ nonce_tag
        server_nonce = rng.digest()
        masked_server_nonce = (
            hasher.hash(pw_digest, server.server_id, server.shared_secret) ^ nonce_tag ^ server_nonce
        )
        tagged = (
            {"server_nonce_tag": hasher.hash(server.shared_secret, server_nonce)}
            if self.hardened
            else {}
        )
        server_checksum = hasher.hash(identity_key, pw_digest, server.shared_secret, server_nonce)
        session_key = hasher.hash(pw_digest, nonce_tag, server_nonce, server.server_id)
        response = self.auth_response(
            masked_server_nonce=masked_server_nonce, server_checksum=server_checksum, **tagged
        )
        return response, Session(
            identity_key, client_nonce, nonce_tag, pw_digest, server_nonce, session_key
        )

    def verify_server(
        self,
        hasher: Hasher,
        session: Session,
        card,
        response,
        server_id: bytes,
        probe: Probe | None = None,
    ) -> Digest:
        """Verify the server's answer and derive the session key."""
        blind = hasher.hash(session.pw_digest, server_id, card.shared_secret)
        server_nonce = blind ^ session.nonce_tag ^ response.masked_server_nonce
        reason = Reason.SERVER_AUTH_FAILED
        if self.hardened:
            passed = hasher.hash(card.shared_secret, server_nonce) == response.server_nonce_tag
            _decide(probe, "server-nonce-tag", passed, Reason.SERVER_NONCE_TAG_MISMATCH)
            reason = Reason.SERVER_CHECKSUM_MISMATCH
        expected = hasher.hash(
            session.identity_key, session.pw_digest, card.shared_secret, server_nonce
        )
        _decide(probe, "server-checksum", response.server_checksum == expected, reason)
        session.server_nonce = server_nonce
        session.session_key = hasher.hash(
            session.pw_digest, session.nonce_tag, server_nonce, server_id
        )
        return session.session_key

    def change_password(
        self,
        hasher: Hasher,
        card,
        bio_sample: bytes,
        old_password: bytes,
        new_password: bytes,
        probe: Probe | None = None,
    ):
        """Re-seal the card key under a new password.

        Without the hardening nothing on the card can detect a wrong old
        password: the update is applied anyway and the sealed key unseals
        to garbage forever after.  A hardened card refuses a wrong old
        password, untouched, and replaces sealed key and verifier together.
        """
        _check_biometric(hasher, card, bio_sample, probe)
        check_password(new_password)
        _, identity_key = self._unseal(hasher, card, old_password, probe)
        _, new_verifier = _verifier(hasher, card.salt, card.bio_template, new_password)
        return replace(card, **self._seal(identity_key, new_verifier))
