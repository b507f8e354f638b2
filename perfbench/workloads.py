"""The benchmark's three workloads, each driving smartauth through public entry points.

Every program call goes through a module attribute (``cli.main``,
``improved.login``, ``runtime.save_replay_db``) looked up at call time, so
the span shim in ``spans.py`` sees it.  Each workload builds all of its
inputs from the workload seed in ``__init__`` (the set-up that is timed as
``setup_s``), then ``step`` performs one unit of work and checks its
output.  Only time spent inside program calls is recorded, so the
benchmark's own checks do not count against the program.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import statistics
from array import array
from bisect import bisect_right
from dataclasses import fields as dataclass_fields, replace
from pathlib import Path
from time import perf_counter_ns

from smartauth import cli, improved, runtime
from smartauth.hashing import Digest, DigestRng, Hasher
from smartauth.runtime import Reason, Rejected, RegistrationCenter, ServerState

PINS_PATH = Path(__file__).resolve().parent / "sweep_pins.json"

ID_ALPHABET = bytes(range(0x21, 0x7F))  # printable 7-bit, no whitespace; includes "\"


class Outcome:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> None:
        """A benchmark-level invariant; a violation is one failed operation."""
        if not ok:
            self.fail(problem)


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _unique_ids(gen: random.Random, count: int) -> list[bytes]:
    """Distinct printable identities in generation order (never set order)."""
    seen: set[bytes] = set()
    ids = []
    while len(ids) < count:
        identity = bytes(gen.choices(ID_ALPHABET, k=gen.randint(4, 16)))
        if identity not in seen:
            seen.add(identity)
            ids.append(identity)
    return ids


class ScenarioSweep:
    """All 18 (scheme, scenario) pairs through ``cli.main(["run", ...])``, in-process.

    One pass calls ``cli.main`` once per pair with ``TRIALS`` trials; a
    step is one pass.  The scenario list is pinned here rather than read
    from ``smartauth.scenarios.SCENARIOS``, so that adding a scenario to the
    program does not silently change this workload.
    """

    name = "scenario-sweep"
    SCHEMES = ("baseline", "improved")
    SCENARIOS = (
        "honest",
        "wrong-password",
        "wrong-password-change",
        "correct-password-change",
        "replay",
        "tamper",
        "stolen-card",
        "hash-count",
        "double-login",
    )
    TRIALS = 50
    TRACE_STEPS = 2
    HASHES_PER_HONEST_RUN = {"baseline": 13, "improved": 15}
    LAYERS = frozenset(
        {
            "hashing.hash",
            "hashing.hash_uncounted",
            "hashing.xor",
            "hashing.rng",
            *(
                f"{scheme}.{fn}"
                for scheme in SCHEMES
                for fn in ("register", "login", "authenticate", "verify_server", "change_password")
            ),
            "runtime.replay_check_and_store",
            "channel.transmit",
            "channel.replay",
            "channel.Transcript.add",
            "channel.Transcript.render",
            "scenarios.run_scenario",
            "cli.main",
        }
    )
    _HASH_LINE = re.compile(rb"^hash calls: client=(\d+) server=(\d+)$", re.MULTILINE)

    def __init__(self, seed: int, tmp: Path, outcome: Outcome, tracer=None) -> None:
        self.seed = seed
        self.outcome = outcome
        self.tracer = tracer
        self.out = tmp / "sweep.out"
        self.pairs = [(s, x) for x in self.SCENARIOS for s in self.SCHEMES]
        self.argvs = self._argvs(seed)
        self.call_ns = array("q")
        self.pass_ns = array("q")
        self.hash_counts: dict[str, set[int]] = {s: set() for s in self.SCHEMES}
        # Warm-up pass: fills caches and fixes the per-call reference outputs.
        self.reference, self.reference_digest = self._pass(self.argvs, record=False)

    def _argvs(self, seed: int) -> list[list[str]]:
        gen = random.Random(seed)
        return [
            [
                "run", "--scheme", scheme, "--scenario", scenario,
                "--seed", str(gen.getrandbits(32)), "--trials", str(self.TRIALS),
                "--out", str(self.out),
            ]
            for scheme, scenario in self.pairs
        ]

    def _call(self, argv: list[str]) -> tuple[int, int]:
        if self.tracer is not None:
            self.tracer.new_trace()
        start = perf_counter_ns()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, perf_counter_ns() - start

    def _pass(self, argvs, record: bool) -> tuple[list[str], str]:
        """Run every pair once; returns each call's output sha256 and that of all output."""
        digests = []
        whole = hashlib.sha256()
        for i, ((scheme, scenario), argv) in enumerate(zip(self.pairs, argvs)):
            self.outcome.attempted += 1
            try:
                code, elapsed = self._call(argv)
            except Exception as exc:  # a crash is one failed call, not a stopped benchmark
                self.outcome.fail(f"{scheme}/{scenario}: {exc!r}")
                digests.append("")
                continue
            data = self.out.read_bytes()
            whole.update(data)
            digests.append(hashlib.sha256(data).hexdigest())
            if code != 0:
                self.outcome.fail(f"{scheme}/{scenario}: cli exit {code}")
            elif record and digests[i] != self.reference[i]:
                self.outcome.fail(f"{scheme}/{scenario}: output differs from the warm-up pass")
            if scenario == "hash-count":
                for client, server in self._HASH_LINE.findall(data):
                    self.hash_counts[scheme].add(int(client) + int(server))
            if record:
                self.call_ns.append(elapsed)
        return digests, whole.hexdigest()

    def step(self) -> None:
        calls = len(self.call_ns)
        self._pass(self.argvs, record=True)
        self.pass_ns.append(sum(self.call_ns[calls:]))

    def finish(self) -> list[str]:
        """Check the pinned output digest and the exact hash counts."""
        pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
        self.outcome.check(pins["trials"] == self.TRIALS, "sweep_pins.json was made for other trials")
        digests = pins["digests"]
        pin_seed = self.seed if str(self.seed) in digests else self.seed % len(digests)
        if pin_seed == self.seed:
            digest = self.reference_digest
        else:
            _, digest = self._pass(self._argvs(pin_seed), record=False)
        self.outcome.check(
            digest == digests[str(pin_seed)],
            f"sweep output for seed {pin_seed} differs from its pinned digest",
        )
        for scheme, expected in self.HASHES_PER_HONEST_RUN.items():
            self.outcome.check(
                self.hash_counts[scheme] == {expected},
                f"{scheme} hash-count runs used {sorted(self.hash_counts[scheme])} hashes, not {expected}",
            )
        return [f"output digest checked against the pin for seed {pin_seed}"]

    def busy_s(self) -> float:
        return sum(self.call_ns) / 1e9

    def metrics(self) -> tuple[dict, list[str]]:
        runs_per_pass = len(self.pairs) * self.TRIALS
        call_ms = [ns / 1e6 for ns in self.call_ns]
        rate = len(self.pass_ns) * runs_per_pass / self.busy_s()
        p50 = statistics.median(self.pass_ns) / 1e6 / runs_per_pass
        e2e = {"throughput_per_s": (rate, "1/s"), "latency_p50_ms": (p50, "ms")}
        lines = [
            f"sweep_runs_per_s = {rate:.1f} 1/s ({len(self.pass_ns)} passes of "
            f"{len(self.pairs)} pairs x {self.TRIALS} trials)",
            f"run_ms_p50 = {p50:.4f} ms (mean scenario-run time in the median pass)",
            f"cli_call_ms_p50 = {statistics.median(call_ms):.3f} ms, "
            f"cli_call_ms_p99 = {_percentile(call_ms, 0.99):.3f} ms ({len(call_ms)} calls)",
        ]
        return e2e, lines

    def exact_counts(self) -> dict[str, int]:
        return {
            f"{scheme}.hashes_per_hash_count_run": min(self.hash_counts[scheme], default=0)
            for scheme in self.SCHEMES
        }


class ServerLogins:
    """One improved-scheme server with ``USERS`` registered users; a closed loop of attempts.

    One caller, one attempt at a time.  Users are picked with a Zipf-like
    skew, so a hot set logs in again and again while a long tail rarely
    does.  A step is one attempt.
    """

    name = "server-logins"
    USERS = 20_000
    ZIPF_S = 1.0
    MIX = (("honest", 0.80), ("replay", 0.10), ("tamper", 0.05), ("wrong-password", 0.05))
    TRACE_STEPS = 10_000
    HASHES_PER_HONEST_EXCHANGE = 15
    LAYERS = frozenset(
        {
            "hashing.hash",
            "hashing.hash_uncounted",
            "hashing.xor",
            "hashing.rng",
            "improved.login",
            "improved.authenticate",
            "improved.verify_server",
            "runtime.replay_check_and_store",
        }
    )

    def __init__(self, seed: int, tmp: Path, outcome: Outcome, tracer=None) -> None:
        self.outcome = outcome
        self.tracer = tracer
        gen = random.Random(seed)
        master = Digest(gen.randbytes(32))
        shared = Digest(gen.randbytes(32))
        rc = RegistrationCenter(master, shared)
        self.server = ServerState(master, shared, b"srv-" + bytes(gen.choices(ID_ALPHABET, k=8)))
        self.rng = DigestRng(gen.getrandbits(64), 32)
        self.client_hasher = Hasher()
        self.server_hasher = Hasher()
        setup_hasher = Hasher()
        self.users = []
        for user_id in _unique_ids(gen, self.USERS):
            password = gen.randbytes(gen.randint(8, 24))
            wrong = password + b"!"
            biometric = gen.randbytes(32)
            card = improved.register(setup_hasher, rc, user_id, password, biometric, self.rng)
            self.users.append((user_id, password, wrong, biometric, card))
        order = list(range(self.USERS))
        gen.shuffle(order)
        self.order = order
        self.cum = []
        total = 0.0
        for rank in range(self.USERS):
            total += 1.0 / (rank + 1) ** self.ZIPF_S
            self.cum.append(total)
        self.pick = random.Random(gen.getrandbits(64))
        shares = [share for _, share in self.MIX]
        self.kind_bounds = [sum(shares[: i + 1]) for i in range(len(shares) - 1)]
        self.login_fields = [f.name for f in dataclass_fields(improved.LoginMessage)]
        self.captured: dict[int, tuple] = {}  # user index -> (login message, client nonce)
        self.attempt_ns = array("q")
        self.honest_ns = array("q")
        self.kinds = {kind: 0 for kind, _ in self.MIX}
        self.attempts = {
            "honest": self._honest,
            "replay": self._replay,
            "tamper": self._tamper,
            "wrong-password": self._wrong_password,
        }
        self.exchange_hashes: set[int] = set()

    def step(self) -> None:
        pick = self.pick
        kind = self.MIX[bisect_right(self.kind_bounds, pick.random())][0]
        index = self.order[bisect_right(self.cum, pick.random() * self.cum[-1])]
        if kind == "replay" and index not in self.captured:
            kind = "honest"  # nothing captured for this user yet
        self.kinds[kind] += 1
        self.outcome.attempted += 1
        if self.tracer is not None:
            self.tracer.new_trace()
        try:
            elapsed = self.attempts[kind](index)
        except Exception as exc:  # a crash is one failed attempt, not a stopped benchmark
            self.outcome.fail(f"{kind}: {exc!r}")
            return
        self.attempt_ns.append(elapsed)

    def _honest(self, index: int) -> int:
        user_id, password, _, biometric, card = self.users[index]
        client, server = self.client_hasher, self.server_hasher
        before = client.count + server.count
        start = perf_counter_ns()
        message, client_session = improved.login(client, card, user_id, password, biometric, self.rng)
        response, server_session = improved.authenticate(server, self.server, message, self.rng)
        key = improved.verify_server(client, client_session, card, response, self.server.server_id)
        elapsed = perf_counter_ns() - start
        hashes = client.count + server.count - before
        self.exchange_hashes.add(hashes)
        self.outcome.check(key == server_session.session_key, "honest exchange: session keys differ")
        self.outcome.check(
            hashes == self.HASHES_PER_HONEST_EXCHANGE, f"honest exchange used {hashes} hashes"
        )
        self.captured[index] = (message, client_session.client_nonce)
        self.honest_ns.append(elapsed)
        return elapsed

    def _replay(self, index: int) -> int:
        message, _ = self.captured[index]
        start = perf_counter_ns()
        try:
            improved.authenticate(self.server_hasher, self.server, message, self.rng)
            reason = None
        except Rejected as exc:
            reason = exc.reason
        elapsed = perf_counter_ns() - start
        self.outcome.check(reason is Reason.REPLAY, f"replay ended in {reason}, not replay")
        return elapsed

    def _tamper(self, index: int) -> int:
        user_id, password, _, biometric, card = self.users[index]
        start = perf_counter_ns()
        message, _ = improved.login(
            self.client_hasher, card, user_id, password, biometric, self.rng
        )
        elapsed = perf_counter_ns() - start
        field = self.pick.choice(self.login_fields)
        value = getattr(message, field)
        flipped = bytearray(bytes(value))
        bit = self.pick.randrange(len(flipped) * 8)
        flipped[bit // 8] ^= 1 << (bit % 8)
        bad = replace(
            message, **{field: Digest(bytes(flipped)) if isinstance(value, Digest) else bytes(flipped)}
        )
        start = perf_counter_ns()
        try:
            improved.authenticate(self.server_hasher, self.server, bad, self.rng)
            rejection = None
        except Rejected as exc:
            rejection = exc
        elapsed += perf_counter_ns() - start
        self.outcome.check(
            rejection is not None and not rejection.local,
            f"tampered {field} bit {bit} was not rejected by the server",
        )
        return elapsed

    def _wrong_password(self, index: int) -> int:
        user_id, _, wrong, biometric, card = self.users[index]
        start = perf_counter_ns()
        try:
            improved.login(self.client_hasher, card, user_id, wrong, biometric, self.rng)
            reason = None
        except Rejected as exc:
            reason = exc.reason
        elapsed = perf_counter_ns() - start
        self.outcome.check(
            reason is Reason.WRONG_PASSWORD, f"wrong password ended in {reason}, not wrong-password"
        )
        return elapsed

    def finish(self) -> list[str]:
        """The replay DB holds exactly the nonce of each user's last accepted login."""
        db = self.server.replay_db
        stale = sum(
            1 for index, (_, nonce) in self.captured.items() if db.get(self.users[index][0]) != nonce
        )
        self.outcome.check(stale == 0, f"{stale} replay-DB entries differ from the last accepted nonce")
        self.outcome.check(
            len(db) == len(self.captured),
            f"replay DB has {len(db)} entries for {len(self.captured)} users who logged in",
        )
        return [f"replay DB entries at end: {len(db)} of {self.USERS} users"]

    def busy_s(self) -> float:
        return sum(self.attempt_ns) / 1e9

    def metrics(self) -> tuple[dict, list[str]]:
        rate = len(self.attempt_ns) / self.busy_s()
        honest_us = [ns / 1e3 for ns in self.honest_ns]
        p50 = statistics.median(honest_us)
        e2e = {"throughput_per_s": (rate, "1/s"), "latency_p50_ms": (p50 / 1e3, "ms")}
        mix = ", ".join(f"{kind}={count}" for kind, count in self.kinds.items())
        lines = [
            f"attempts_per_s = {rate:.1f} 1/s ({len(self.attempt_ns)} attempts: {mix})",
            f"login_us_p50 = {p50:.2f} us, login_us_p99 = {_percentile(honest_us, 0.99):.2f} us "
            f"({len(honest_us)} honest exchanges)",
        ]
        return e2e, lines

    def exact_counts(self) -> dict[str, int]:
        return {"improved.hashes_per_honest_exchange": min(self.exchange_hashes, default=0)}


class ReplayDbSnapshot:
    """A ``ENTRIES``-entry replay DB saved with ``save_replay_db`` and read back with ``load_replay_db``.

    A step is one save followed by one load of the same temp file.  The
    page cache is warm: the file was just written, and the benchmark does
    not drop caches.
    """

    name = "replaydb-snapshot"
    ENTRIES = 100_000
    TRACE_STEPS = 2
    LAYERS = frozenset({"runtime.save_replay_db", "runtime.load_replay_db"})

    def __init__(self, seed: int, tmp: Path, outcome: Outcome, tracer=None) -> None:
        self.outcome = outcome
        self.tracer = tracer
        gen = random.Random(seed)
        ids = _unique_ids(gen, self.ENTRIES)
        self.escaped = sum(1 for identity in ids if b"\\" in identity)
        nonces = DigestRng(gen.getrandbits(64), 32)
        self.server = ServerState(
            Digest(gen.randbytes(32)),
            Digest(gen.randbytes(32)),
            b"srv-bench",
            replay_db={identity: nonces.digest() for identity in ids},
        )
        self.path = tmp / "replay.db"
        self.save_ns = array("q")
        self.load_ns = array("q")
        # Warm-up round trip: fixes the reference bytes and warms the page cache.
        runtime.save_replay_db(self.server, self.path)
        data = self.path.read_bytes()
        self.size = len(data)
        self.reference = hashlib.sha256(data).digest()
        self.outcome.attempted += 1
        try:
            loaded = runtime.load_replay_db(self.path)
        except Exception as exc:  # counted like any other failed load
            self.outcome.fail(f"warm-up load: {exc!r}")
        else:
            self.outcome.check(loaded == self.server.replay_db, "warm-up load differs")

    def step(self) -> None:
        self.outcome.attempted += 2
        try:
            if self.tracer is not None:
                self.tracer.new_trace()
            start = perf_counter_ns()
            runtime.save_replay_db(self.server, self.path)
            saved = perf_counter_ns() - start
            same = hashlib.sha256(self.path.read_bytes()).digest() == self.reference
            self.outcome.check(same, "save wrote different bytes")
            if self.tracer is not None:
                self.tracer.new_trace()
            start = perf_counter_ns()
            loaded = runtime.load_replay_db(self.path)
            elapsed = perf_counter_ns() - start
        except Exception as exc:  # a crash fails the round trip, not the benchmark
            self.outcome.fail(f"snapshot round trip: {exc!r}")
            return
        self.outcome.check(loaded == self.server.replay_db, "loaded map differs from the saved map")
        self.save_ns.append(saved)
        self.load_ns.append(elapsed)

    def finish(self) -> list[str]:
        return [
            f"{self.ENTRIES} entries ({self.escaped} identities contain '\\'), "
            f"{self.size} bytes per snapshot; page cache warm (caches are not dropped)"
        ]

    def busy_s(self) -> float:
        return (sum(self.save_ns) + sum(self.load_ns)) / 1e9

    def metrics(self) -> tuple[dict, list[str]]:
        trips_ms = [(s + l) / 1e6 for s, l in zip(self.save_ns, self.load_ns)]
        p50 = statistics.median(trips_ms)
        rate = len(trips_ms) / self.busy_s()
        save_ms = statistics.median(ns / 1e6 for ns in self.save_ns)
        load_ms = statistics.median(ns / 1e6 for ns in self.load_ns)
        e2e = {"throughput_per_s": (rate, "1/s"), "latency_p50_ms": (p50, "ms")}
        lines = [
            f"snapshot_save_ms = {save_ms:.2f} ms, snapshot_load_ms = {load_ms:.2f} ms "
            f"(medians of {len(trips_ms)} each at {self.ENTRIES} entries)",
            f"round_trips_per_s = {rate:.3f} 1/s",
        ]
        return e2e, lines

    def exact_counts(self) -> dict[str, int]:
        return {}


WORKLOADS = {cls.name: cls for cls in (ScenarioSweep, ServerLogins, ReplayDbSnapshot)}
