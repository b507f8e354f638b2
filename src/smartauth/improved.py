"""The hardened variant of the challenge-response scheme.

Three things change against the baseline: the card stores the password
verifier so a wrong password is rejected locally before anything reaches
the wire; the login message carries the nonce tag so the server can check
it directly before the checksum; and the response carries a dedicated
server-nonce tag the client checks first.  Password change verifies the
old password and updates sealed key and verifier together, so a failed
attempt leaves the card byte-identical.  The protocol steps and the types,
declared hardened, live in ``protocol``.
"""

from .hashing import Digest
from .protocol import Scheme

SCHEME = Scheme(hardened=True)

Card = SCHEME.card
LoginMessage = SCHEME.login_message
AuthResponse = SCHEME.auth_response

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
