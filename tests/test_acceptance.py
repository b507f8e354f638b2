"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``) and
asserts the criterion, so the pytest verdict per test doubles as the
criterion verdict.
"""

import random
import time
from dataclasses import fields as dataclass_fields

from smartauth import (
    Digest,
    Hasher,
    Reason,
    Rejected,
    baseline,
    improved,
    load_replay_db,
    measure_costs,
    run_scenario,
    save_replay_db,
)
from smartauth.channel import tamper_message
from smartauth.scenarios import SCENARIOS, SCHEMES

from support import FixedRng, exchange, make_setup, raw_hash
from test_improved import reference_run


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_thousand_honest_trials_per_scheme_under_five_seconds():
    start = time.perf_counter()
    accepted = {scheme: 0 for scheme in SCHEMES}
    keys_equal = {scheme: 0 for scheme in SCHEMES}
    for scheme in SCHEMES:
        for seed in range(1000):
            _, result = run_scenario(scheme, "honest", seed)
            if result.verdict == "accept":
                accepted[scheme] += 1
            if result.client_key is not None and result.client_key == result.server_key:
                keys_equal[scheme] += 1
    elapsed = time.perf_counter() - start
    ok = (
        all(accepted[s] == 1000 for s in SCHEMES)
        and all(keys_equal[s] == 1000 for s in SCHEMES)
        and elapsed < 5.0
    )
    report(
        "criterion 1 (honest runs)",
        ok,
        f"accepted baseline={accepted['baseline']}/1000 improved={accepted['improved']}/1000, "
        f"keys equal 1000/1000 each, elapsed={elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_wrong_password_paths_differ_by_scheme():
    baseline_ok = 0
    improved_ok = 0
    for seed in range(100):
        _, rb = run_scenario("baseline", "wrong-password", seed)
        if (
            rb.verdict == "reject"
            and rb.reason is Reason.CHECKSUM_MISMATCH
            and rb.messages_sent == 1
        ):
            baseline_ok += 1
        _, ri = run_scenario("improved", "wrong-password", seed)
        if (
            ri.verdict == "local-reject"
            and ri.reason is Reason.WRONG_PASSWORD
            and ri.messages_sent == 0
        ):
            improved_ok += 1
    ok = baseline_ok == 100 and improved_ok == 100
    report(
        "criterion 2 (wrong password)",
        ok,
        f"baseline server-side checksum reject with 1 message: {baseline_ok}/100; "
        f"improved local reject with 0 messages: {improved_ok}/100",
    )


def test_criterion_3_wrong_old_password_change():
    # Baseline: the unchecked change corrupts the card for both passwords.
    s = make_setup(baseline, seed=33)
    new_password = b"after-change-pw"
    s.card = baseline.change_password(
        s.hasher, s.card, s.biometric, b"wrong-old-password", new_password
    )
    rejected_new = 0
    rejected_old = 0
    for _ in range(10):
        for password, bucket in ((new_password, "new"), (s.password, "old")):
            message, _ = baseline.login(
                s.hasher, s.card, s.user_id, password, s.biometric, s.rng
            )
            try:
                baseline.authenticate(s.hasher, s.server, message, s.rng)
            except Rejected as exc:
                if exc.reason is Reason.CHECKSUM_MISMATCH:
                    if bucket == "new":
                        rejected_new += 1
                    else:
                        rejected_old += 1

    # Improved: the change itself is refused and the card keeps working.
    s2 = make_setup(improved, seed=33)
    card_before = s2.card
    change_rejected = False
    try:
        improved.change_password(
            s2.hasher, s2.card, s2.biometric, b"wrong-old-password", new_password
        )
    except Rejected as exc:
        change_rejected = exc.reason is Reason.WRONG_PASSWORD
    accepted_after = 0
    for _ in range(10):
        client_key, server_session, _ = exchange(improved, s2)
        if client_key == server_session.session_key:
            accepted_after += 1
    ok = (
        rejected_new == 10
        and rejected_old == 10
        and change_rejected
        and s2.card == card_before
        and accepted_after == 10
    )
    report(
        "criterion 3 (wrong-old-password change)",
        ok,
        f"baseline logins rejected new={rejected_new}/10 old={rejected_old}/10; "
        f"improved change rejected, card intact, logins accepted {accepted_after}/10",
    )


def test_criterion_4_replay_rejected_and_fresh_login_replaces_entry():
    replay_ok = {scheme: 0 for scheme in SCHEMES}
    for scheme in SCHEMES:
        for seed in range(100):
            _, result = run_scenario(scheme, "replay", seed)
            if result.verdict == "reject" and result.reason is Reason.REPLAY:
                replay_ok[scheme] += 1
    fresh_ok = True
    for mod in (baseline, improved):
        s = make_setup(mod, seed=44)
        message, _ = mod.login(s.hasher, s.card, s.user_id, s.password, s.biometric, s.rng)
        mod.authenticate(s.hasher, s.server, message, s.rng)
        first = s.server.replay_db[s.user_id]
        message2, _ = mod.login(s.hasher, s.card, s.user_id, s.password, s.biometric, s.rng)
        mod.authenticate(s.hasher, s.server, message2, s.rng)  # accepted
        second = s.server.replay_db[s.user_id]
        fresh_ok &= first != second
    ok = all(replay_ok[s] == 100 for s in SCHEMES) and fresh_ok
    report(
        "criterion 4 (replay)",
        ok,
        f"verbatim replays rejected baseline={replay_ok['baseline']}/100 "
        f"improved={replay_ok['improved']}/100; fresh second login accepted with entry replaced",
    )


def test_criterion_5_ten_thousand_single_bit_tampers_all_rejected():
    rnd = random.Random(55)
    s = make_setup(improved, seed=55)
    login_fields = [f.name for f in dataclass_fields(improved.LoginMessage)]
    response_fields = [f.name for f in dataclass_fields(improved.AuthResponse)]
    rejected = 0
    accepted = 0
    for _ in range(10_000):
        message, client_session = improved.login(
            s.hasher, s.card, s.user_id, s.password, s.biometric, s.rng
        )
        field = rnd.choice(login_fields + response_fields)
        try:
            if field in login_fields:
                value = getattr(message, field)
                bad = tamper_message(message, field, rnd.randrange(len(value) * 8))
                improved.authenticate(s.hasher, s.server, bad, s.rng)
            else:
                response, _ = improved.authenticate(s.hasher, s.server, message, s.rng)
                value = getattr(response, field)
                bad = tamper_message(response, field, rnd.randrange(len(value) * 8))
                improved.verify_server(s.hasher, client_session, s.card, bad, s.server_id)
            accepted += 1
        except Rejected:
            rejected += 1
    ok = rejected == 10_000 and accepted == 0
    report(
        "criterion 5 (bit tampering)",
        ok,
        f"single-bit flips over all 8 wire fields rejected {rejected}/10000 (accepted: {accepted})",
    )


def test_criterion_6_hash_delta_two_and_storage_delta_one_digest():
    report_costs = measure_costs()
    ok = report_costs.hash_delta == 2 and report_costs.storage_delta_digests == 1
    report(
        "criterion 6 (costs)",
        ok,
        f"hash calls baseline={report_costs.total('baseline')} "
        f"improved={report_costs.total('improved')} delta={report_costs.hash_delta} (expected 2); "
        f"card digests {report_costs.card_digests['baseline']} -> "
        f"{report_costs.card_digests['improved']} (delta 1)",
    )


def test_criterion_7_extraction_identity_holds_before_and_after_change():
    rnd = random.Random(77)
    holds = 0
    for i in range(100):
        s = make_setup(improved, seed=1000 + i)
        expected = raw_hash(32, s.user_id, bytes(s.rc.master_secret))
        before = bytes(improved.extract_identity_key(s.card))
        changed = improved.change_password(
            s.hasher, s.card, s.biometric, s.password, b"changed-%d" % rnd.getrandbits(32)
        )
        after = bytes(improved.extract_identity_key(changed))
        if before == expected and after == expected:
            holds += 1
    ok = holds == 100
    report(
        "criterion 7 (stolen-card identity)",
        ok,
        f"sealed_key xor verifier equals the server-side identity key {holds}/100 "
        "registrations, before and after password change",
    )


def test_criterion_8_toy_width_exhaustive_oracle():
    hasher = Hasher(1)
    s = make_setup(improved, seed=88, digest_size=1)
    salt = bytes(16)
    card = improved.register(hasher, s.rc, s.user_id, s.password, s.biometric, FixedRng(salts=[salt]))
    r_s = Digest(b"\x5a")
    matched = 0
    for value in range(256):
        r_c = Digest(bytes([value]))
        server = type(s.server)(s.rc.master_secret, s.rc.shared_secret, s.server_id)
        message, client_session = improved.login(
            hasher, card, s.user_id, s.password, s.biometric, FixedRng(digests=[r_c])
        )
        response, server_session = improved.authenticate(
            hasher, server, message, FixedRng(digests=[r_s])
        )
        client_key = improved.verify_server(hasher, client_session, card, response, s.server_id)
        ref = reference_run(
            1, s.user_id, s.password, s.biometric, salt,
            bytes(s.rc.master_secret), bytes(s.rc.shared_secret), s.server_id,
            bytes(r_c), bytes(r_s),
        )
        if not (
            server_session.client_nonce == r_c
            and server_session.nonce_tag == message.nonce_tag
            and bytes(message.masked_nonce) == ref["masked_nonce"]
            and bytes(message.nonce_tag) == ref["nonce_tag"]
            and bytes(message.masked_pw_digest) == ref["masked_pw_digest"]
            and bytes(message.checksum) == ref["checksum"]
            and bytes(server_session.client_nonce) == ref["srv_client_nonce"]
            and bytes(server_session.nonce_tag) == ref["srv_nonce_tag"]
            and bytes(server_session.pw_digest) == ref["srv_pw_digest"]
            and bytes(response.masked_server_nonce) == ref["masked_server_nonce"]
            and bytes(response.server_nonce_tag) == ref["server_nonce_tag"]
            and bytes(response.server_checksum) == ref["server_checksum"]
            and bytes(server_session.session_key) == ref["srv_session_key"]
            and bytes(client_session.server_nonce) == ref["cli_server_nonce"]
            and bytes(client_key) == ref["cli_session_key"]
        ):
            break
        matched += 1
    ok = matched == 256
    report(
        "criterion 8 (toy-width exhaustive oracle)",
        ok,
        f"all client nonces recovered, nonce tags matched, and every protocol value "
        f"equals the independent recomputation for {matched}/256 nonce values",
    )


def test_criterion_9_determinism_and_snapshot_round_trip(tmp_path):
    identical = 0
    combos = [(scheme, scenario) for scheme in SCHEMES for scenario in SCENARIOS]
    for scheme, scenario in combos:
        first, _ = run_scenario(scheme, scenario, seed=99)
        second, _ = run_scenario(scheme, scenario, seed=99)
        if first.render() == second.render():
            identical += 1
    s = make_setup(improved, seed=99)
    for _ in range(2):
        message, _ = improved.login(s.hasher, s.card, s.user_id, s.password, s.biometric, s.rng)
        improved.authenticate(s.hasher, s.server, message, s.rng)
    path = tmp_path / "replay.snapshot"
    save_replay_db(s.server, path)
    round_trip = load_replay_db(path) == s.server.replay_db
    ok = identical == len(combos) and round_trip
    report(
        "criterion 9 (determinism)",
        ok,
        f"byte-identical transcripts {identical}/{len(combos)} scheme-scenario pairs; "
        f"replay-db snapshot round-trips exactly: {round_trip}",
    )
