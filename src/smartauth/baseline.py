"""The original challenge-response scheme, flaws preserved.

The card gates login on the biometric only: the entered password is never
checked locally, so a wrong password still produces a well-formed wire
message that the server rejects.  Password change rewrites the sealed key
unconditionally, which bricks the card when the old password was wrong.
Both behaviours are intentional; the attack scenarios depend on them.
The protocol steps and the types, declared hardened, live in ``protocol``.
"""

from .protocol import Scheme

SCHEME = Scheme(hardened=False)

Card = SCHEME.card
LoginMessage = SCHEME.login_message
AuthResponse = SCHEME.auth_response

register = SCHEME.register
login = SCHEME.login
authenticate = SCHEME.authenticate
verify_server = SCHEME.verify_server
change_password = SCHEME.change_password
