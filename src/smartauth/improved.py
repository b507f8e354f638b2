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

from . import protocol

SCHEME = protocol.Scheme(hardened=True)

Card = SCHEME.card
LoginMessage = SCHEME.login_message
AuthResponse = SCHEME.auth_response

register = SCHEME.register
login = SCHEME.login
authenticate = SCHEME.authenticate
verify_server = SCHEME.verify_server
change_password = SCHEME.change_password
# Only this card stores the verifier, so only it yields its identity key to a thief.
extract_identity_key = protocol.extract_identity_key
