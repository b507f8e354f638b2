"""The original challenge-response scheme, flaws preserved.

The card gates login on the biometric only: the entered password is never
checked locally, so a wrong password still produces a well-formed wire
message that the server rejects.  Password change rewrites the sealed key
unconditionally, which bricks the card when the old password was wrong.
Both behaviours are intentional; the attack scenarios depend on them.
The protocol steps live in ``protocol``; this module names the types.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hashing import Digest
from .protocol import Scheme


@dataclass(frozen=True)
class Card:
    """Contents of an issued smart card."""

    bio_template: Digest   # hash of the enrolled biometric sample
    sealed_key: Digest     # identity key XOR password verifier
    shared_secret: Digest  # server secret mirrored onto the card
    salt: bytes            # 16-byte salt mixed into the password digest


@dataclass(frozen=True)
class LoginMessage:
    user_id: bytes
    masked_nonce: Digest      # client nonce XOR recovered identity key
    masked_pw_digest: Digest  # salted password digest XOR nonce tag
    checksum: Digest          # binds the two masked fields and the tag


@dataclass(frozen=True)
class AuthResponse:
    masked_server_nonce: Digest
    server_checksum: Digest


SCHEME = Scheme(Card, LoginMessage, AuthResponse, hardened=False)

register = SCHEME.register
login = SCHEME.login
authenticate = SCHEME.authenticate
verify_server = SCHEME.verify_server
change_password = SCHEME.change_password
