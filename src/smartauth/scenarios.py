"""Scripted protocol runs: honest sessions and attack reproductions.

``run_scenario`` derives every input (credentials, secrets, nonces) from
one integer seed, drives the chosen scheme through the adversarial
channel, and returns a transcript plus a summary result.  The same
(scheme, scenario, seed, digest width) always yields a byte-identical
transcript.  A scenario's script returns the keys it derived: the client
key and the server key, each ``None`` when that side derived none.  The
first rejection a script does not catch ends the run and is its reason;
``_run`` is the one place that turns a rejection into an outcome.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass, fields as dataclass_fields

from . import baseline, improved
from .channel import AdversarialChannel, Tamper, Transcript
from .hashing import SHA256_SIZE, Digest, DigestRng, Hasher
from .protocol import extract_identity_key
from .runtime import LOCAL_REASONS, Reason, Rejected, RegistrationCenter, ServerState

# The one place a scheme name is bound to its module.
_SCHEME_MODULES = {"baseline": baseline, "improved": improved}
SCHEMES = tuple(_SCHEME_MODULES)

ID_ALPHABET = bytes(range(0x21, 0x7F))


def verdict_class(reason: Reason | str | None) -> str:
    """``accept`` for no reason; ``local-reject`` if the card itself refused."""
    if reason is None:
        return "accept"
    return "local-reject" if reason in LOCAL_REASONS else "reject"


@dataclass
class ScenarioResult:
    """Outcome summary; ``reason`` is ``None`` exactly when accepted.

    A session key is present only when accepted, and only for a side that
    derived one.  ``messages_sent`` counts every message placed on the
    wire, adversary replays included.  ``hash_counts`` are the per-side
    hash invocations after registration (the biometric gate is uncounted);
    ``client`` is the card's count plus the client's.
    """

    scheme: str
    scenario: str
    seed: int
    reason: Reason | None
    messages_sent: int
    hash_counts: dict[str, int]
    client_key: Digest | None = None
    server_key: Digest | None = None

    @property
    def verdict(self) -> str:
        return verdict_class(self.reason)

    @property
    def verdict_text(self) -> str:
        """``accept``, or the verdict and reason, as in ``reject:replay``."""
        if self.reason is None:
            return self.verdict
        return f"{self.verdict}:{self.reason.value}"


def matches_expected(result: ScenarioResult) -> bool:
    """True if the run ended with the expected reason, or in the expected verdict class."""
    expected = EXPECTED_VERDICTS[(result.scheme, result.scenario)]
    return expected in (result.reason, result.verdict)


class _Env:
    """Everything one scenario run needs, derived from a single seed."""

    def __init__(self, scheme: str, scenario: str, seed: int, digest_size: int) -> None:
        self.scheme = scheme
        self.scenario = scenario
        self.seed = seed
        self.digest_size = digest_size
        self.mod = _SCHEME_MODULES[scheme]
        self.master = random.Random(seed)
        self.user_id = bytes(self.master.choices(ID_ALPHABET, k=self.master.randint(4, 16)))
        self.password = self._secret()
        self.wrong_password = self._distinct_secret(self.password)
        self.new_password = self._distinct_secret(self.password)
        self.biometric = self.master.randbytes(32)
        master_secret = Digest(self.master.randbytes(digest_size))
        shared_secret = Digest(self.master.randbytes(digest_size))
        rc = RegistrationCenter(master_secret, shared_secret)
        self.server = ServerState(
            master_secret,
            shared_secret,
            server_id=b"srv-" + bytes(self.master.choices(ID_ALPHABET, k=8)),
        )
        self.rng = DigestRng(self.master.getrandbits(64), digest_size)
        self.card_hasher = Hasher(digest_size)  # one per actor the probes name
        self.server_hasher = Hasher(digest_size)
        self.client_hasher = Hasher(digest_size)
        self.transcript = Transcript()
        self.channel = AdversarialChannel(self.transcript)
        # Registration happens over a secure channel the adversary never
        # sees, so it produces no transcript events and uses its own hasher.
        self.card = self.mod.register(
            Hasher(digest_size), rc, self.user_id, self.password, self.biometric, self.rng
        )

    def probe(self, actor: str):
        """A protocol probe that writes each check ``actor`` decides to the transcript."""

        def report(check: str, failure: Reason | None) -> None:
            if failure is None:
                self.transcript.add(actor, "verify", verdict=f"{check}:ok")
            else:
                self.transcript.add(actor, "reject", verdict=f"{check}:fail:{failure.value}")

        return report

    def _secret(self) -> bytes:
        return self.master.randbytes(self.master.randint(6, 24))

    def _distinct_secret(self, other: bytes) -> bytes:
        secret = self._secret()
        while secret == other:
            secret = self._secret()
        return secret


def _login_exchange(env: _Env, password: bytes) -> tuple[Digest, Digest]:
    """One full login through the channel; returns the client key and the server key."""
    mod = env.mod
    message, client_session = mod.login(
        env.card_hasher,
        env.card,
        env.user_id,
        password,
        env.biometric,
        env.rng,
        probe=env.probe("card"),
    )
    delivered = env.channel.transmit("client", "server", message)
    response, server_session = mod.authenticate(
        env.server_hasher, env.server, delivered, env.rng, probe=env.probe("server")
    )
    env.transcript.add("server", "key-derived", (("session_key", server_session.session_key),))
    delivered_response = env.channel.transmit("server", "client", response)
    client_key = mod.verify_server(
        env.client_hasher,
        client_session,
        env.card,
        delivered_response,
        env.server.server_id,
        probe=env.probe("client"),
    )
    env.transcript.add("client", "key-derived", (("session_key", client_key),))
    return client_key, server_session.session_key


def _replay_to_server(env: _Env, index: int) -> tuple[None, Digest]:
    """Adversary resends a captured login message to the server."""
    message = env.channel.replay(index, "server")
    _, server_session = env.mod.authenticate(
        env.server_hasher, env.server, message, env.rng, probe=env.probe("server")
    )
    # A stale replay, of a login older than the user's last one, passes the
    # freshness check: the server derives a key that no client holds.
    return None, server_session.session_key


def _change_password(env: _Env, old_password: bytes, new_password: bytes) -> None:
    """Attempt a password change on the card; a refusal is recorded, then re-raised."""
    try:
        env.card = env.mod.change_password(
            env.card_hasher,
            env.card,
            env.biometric,
            old_password,
            new_password,
            probe=env.probe("card"),
        )
    except Rejected:
        # Holds by construction: a refused change returns no card, so
        # ``env.card`` is still the issued one, and cards are frozen.
        # test_improved.py::test_change_password_wrong_old_leaves_card_byte_identical
        # pins the property itself against a card re-registered from the seed.
        env.transcript.add("card", "verify", verdict="card-unchanged:ok")
        raise


def _side_counts(env: _Env) -> dict[str, int]:
    """Hash calls per side: the card's and the client's make up the ``client`` side."""
    client = env.card_hasher.count + env.client_hasher.count
    return {"client": client, "server": env.server_hasher.count}


def _run(env: _Env, script) -> tuple[Transcript, ScenarioResult]:
    """Run a script, then summarise it and write the final event listing the keys that exist."""
    reason = client_key = server_key = None
    try:
        client_key, server_key = script(env)
    except Rejected as exc:
        reason = exc.reason
    keys = {}
    if client_key is not None:
        keys["client_key"] = client_key
    if server_key is not None:
        keys["server_key"] = server_key
    result = ScenarioResult(
        scheme=env.scheme,
        scenario=env.scenario,
        seed=env.seed,
        reason=reason,
        messages_sent=env.channel.sent,
        hash_counts=_side_counts(env),
        **keys,
    )
    env.transcript.add(
        "run",
        "accept" if reason is None else "reject",
        tuple(keys.items()),
        verdict=result.verdict_text,
    )
    return env.transcript, result


def _scn_honest(env: _Env) -> tuple[Digest | None, Digest | None]:
    return _login_exchange(env, env.password)


def _scn_wrong_password(env: _Env) -> tuple[Digest | None, Digest | None]:
    return _login_exchange(env, env.wrong_password)


def _scn_wrong_password_change(env: _Env) -> tuple[Digest | None, Digest | None]:
    try:
        _change_password(env, env.wrong_password, env.new_password)
    except Rejected:
        pass  # Refused locally: the unchanged password must still work.
    else:
        # The change went through with a wrong old password (baseline flaw):
        # the card is corrupted and neither password works any more.
        with contextlib.suppress(Rejected):
            _login_exchange(env, env.new_password)
    return _login_exchange(env, env.password)


def _scn_correct_password_change(env: _Env) -> tuple[Digest | None, Digest | None]:
    _change_password(env, env.password, env.new_password)
    return _login_exchange(env, env.new_password)


def _scn_replay(env: _Env) -> tuple[Digest | None, Digest | None]:
    _login_exchange(env, env.password)
    # Captured message 0 is the login request; resend it verbatim.
    return _replay_to_server(env, 0)


def _tamper_targets(env: _Env) -> list[tuple[str, int]]:
    """Each wire field and its width in bits, in declaration order, which a seed's draw relies on."""
    widths = {"user_id": len(env.user_id)}
    return [
        (f.name, widths.get(f.name, env.digest_size) * 8)
        for message_type in (env.mod.LoginMessage, env.mod.AuthResponse)
        for f in dataclass_fields(message_type)
    ]


def _scn_tamper(env: _Env) -> tuple[Digest | None, Digest | None]:
    field, nbits = env.master.choice(_tamper_targets(env))
    env.channel.policy = Tamper(field, env.master.randrange(nbits))
    return _login_exchange(env, env.password)


def _scn_stolen_card(env: _Env) -> tuple[Digest | None, Digest | None]:
    # The thief reads what the card holds: a verifier only where the card
    # stores one, and a password change keeps the card's fields.
    stores_verifier = hasattr(env.card, "verifier")
    breach = [("sealed_key", env.card.sealed_key)]
    if stores_verifier:
        breach.append(("verifier", env.card.verifier))
    env.transcript.add("adversary", "adversary-action", tuple(breach), verdict="card-breach")
    # The real identity key; uncounted, so no hash count moves.
    truth = env.server_hasher.hash_uncounted(env.user_id, env.server.master_secret)

    def record_extraction() -> None:
        if not stores_verifier:
            env.transcript.add(
                "adversary", "adversary-action", verdict="identity-key-extraction:unavailable"
            )
            return
        extracted = extract_identity_key(env.card)
        verdict = "identity-key-extraction:ok" if extracted == truth else "identity-key-extraction:fail"
        env.transcript.add("adversary", "verify", (("identity_key", extracted),), verdict=verdict)

    record_extraction()
    _change_password(env, env.password, env.new_password)
    record_extraction()
    return _login_exchange(env, env.new_password)


def _scn_hash_count(env: _Env) -> tuple[Digest | None, Digest | None]:
    keys = _login_exchange(env, env.password)
    verdict = "hash-count:client={client}:server={server}".format(**_side_counts(env))
    env.transcript.add("run", "verify", verdict=verdict)
    return keys


def _scn_double_login(env: _Env) -> tuple[Digest | None, Digest | None]:
    _login_exchange(env, env.password)
    first = env.server.replay_db[env.user_id]
    _login_exchange(env, env.password)
    replaced = env.server.replay_db[env.user_id] != first
    env.transcript.add(
        "server", "verify", verdict="nonce-replaced:ok" if replaced else "nonce-replaced:fail"
    )
    # Captured order is login, response, login, response: index 2 is the
    # second login request.
    return _replay_to_server(env, 2)


# Each scenario once: its script, then the expected outcome under baseline
# and under improved: a reason (``None``: accepted), or the verdict class
# ``"reject"`` where any wire-side rejection will do.  The order is the
# order of ``SCENARIOS``, which ``smartauth diff`` prints in.
_TABLE = {
    "honest": (_scn_honest, None, None),
    "wrong-password": (_scn_wrong_password, Reason.CHECKSUM_MISMATCH, Reason.WRONG_PASSWORD),
    "wrong-password-change": (_scn_wrong_password_change, Reason.CHECKSUM_MISMATCH, None),
    "correct-password-change": (_scn_correct_password_change, None, None),
    "replay": (_scn_replay, Reason.REPLAY, Reason.REPLAY),
    "tamper": (_scn_tamper, "reject", "reject"),
    "stolen-card": (_scn_stolen_card, None, None),
    "hash-count": (_scn_hash_count, None, None),
    "double-login": (_scn_double_login, Reason.REPLAY, Reason.REPLAY),
}

SCENARIOS = tuple(_TABLE)

EXPECTED_VERDICTS: dict[tuple[str, str], Reason | str | None] = {
    (scheme, scenario): expected
    for scenario, (_, *expectations) in _TABLE.items()
    for scheme, expected in zip(SCHEMES, expectations)
}

# Captions for the match count of the ``run`` summary.
SUMMARY_CAPTIONS = {
    ("baseline", "wrong-password-change"): "card corrupted: subsequent logins rejected",
    ("improved", "wrong-password-change"): "change rejected, card intact: logins accepted",
}

# The scenarios where the two schemes are expected to reach different verdicts.
DIVERGING_SCENARIOS = tuple(
    scenario
    for scenario, (_, base, hardened) in _TABLE.items()
    if verdict_class(base) != verdict_class(hardened)
)


def run_scenario(
    scheme: str,
    scenario: str,
    seed: int = 0,
    digest_size: int = SHA256_SIZE,
) -> tuple[Transcript, ScenarioResult]:
    """Run one scripted scenario deterministically from the seed."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    if seed < 0:
        # ``random.Random`` seeds with ``abs(seed)``: -5 would replay seed 5.
        raise ValueError(f"seed must be non-negative, got {seed}")
    env = _Env(scheme, scenario, seed, digest_size)
    return _run(env, _TABLE[scenario][0])


@dataclass
class CostReport:
    """Hash invocations per phase and card storage, per scheme.

    Counts cover the login and authentication phases only (both session
    key derivations included); registration and the biometric gate hash
    are excluded.  Storage counts the digest-valued card fields; both
    cards also hold the same 16-byte salt.
    """

    phases: dict[str, dict[str, int]]
    card_digests: dict[str, int]

    def total(self, scheme: str) -> int:
        return sum(self.phases[scheme].values())

    @property
    def hash_delta(self) -> int:
        return self.total("improved") - self.total("baseline")

    @property
    def storage_delta_digests(self) -> int:
        return self.card_digests["improved"] - self.card_digests["baseline"]


def measure_costs(digest_size: int = SHA256_SIZE) -> CostReport:
    """Each actor's hash count in the runner's honest exchange, per scheme; seed-independent."""
    phases: dict[str, dict[str, int]] = {}
    card_digests: dict[str, int] = {}
    for scheme in SCHEMES:
        env = _Env(scheme, "hash-count", 0, digest_size)
        _login_exchange(env, env.password)
        phases[scheme] = {
            "login (client)": env.card_hasher.count,
            "authentication (server)": env.server_hasher.count,
            "authentication (client)": env.client_hasher.count,
        }
        card_digests[scheme] = sum(isinstance(value, Digest) for value in vars(env.card).values())
    return CostReport(phases, card_digests)
