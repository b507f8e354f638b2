"""The hardened variant of the challenge-response scheme.

Three things change against the baseline: the card stores the password
verifier so a wrong password is rejected locally before anything reaches
the wire; the login message carries the nonce tag so the server can check
it directly before the checksum; and the response carries a dedicated
server-nonce tag the client checks first.  Password change verifies the
old password and updates sealed key and verifier together, so a failed
attempt leaves the card byte-identical.  The protocol steps live in
``protocol``; this module names the types.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hashing import Digest
from .protocol import Scheme


@dataclass(frozen=True)
class Card:
    """Contents of an issued smart card; stores the verifier the baseline omits."""

    bio_template: Digest
    verifier: Digest       # salted-password digest bound to the biometric template
    sealed_key: Digest     # identity key XOR verifier
    shared_secret: Digest
    salt: bytes


@dataclass(frozen=True)
class LoginMessage:
    user_id: bytes
    masked_nonce: Digest
    nonce_tag: Digest         # sent in clear; the server checks it before anything else
    masked_pw_digest: Digest
    checksum: Digest


@dataclass(frozen=True)
class AuthResponse:
    masked_server_nonce: Digest
    server_nonce_tag: Digest  # tag over the server nonce under the shared secret
    server_checksum: Digest


SCHEME = Scheme(Card, LoginMessage, AuthResponse, hardened=True)

register = SCHEME.register
login = SCHEME.login
authenticate = SCHEME.authenticate
verify_server = SCHEME.verify_server
change_password = SCHEME.change_password


def extract_identity_key(card: Card) -> Digest:
    """What a card thief learns: sealed key XOR verifier is the identity key.

    Available by construction only here; the baseline card does not store
    the verifier, so there is nothing to XOR against.
    """
    return card.sealed_key ^ card.verifier
