"""Scenario scripts: verdicts, determinism, and transcript structure."""

import gc
import hashlib

import pytest

from smartauth import (
    EXPECTED_VERDICTS,
    SCENARIOS,
    SCHEMES,
    Reason,
    ScenarioResult,
    baseline,
    improved,
    matches_expected,
    measure_costs,
    run_scenario,
)
from smartauth.cli import _text_report, main
from smartauth.runtime import LOCAL_REASONS
from smartauth.scenarios import _Env, _login_exchange, _replay_to_server, _run, verdict_class

from support import raw_hash


ALL_COMBOS = [(scheme, scenario) for scheme in SCHEMES for scenario in SCENARIOS]


@pytest.mark.parametrize("scheme,scenario", ALL_COMBOS)
def test_every_scenario_matches_its_expected_verdict(scheme, scenario):
    for seed in (0, 1, 7):
        _, result = run_scenario(scheme, scenario, seed)
        assert matches_expected(result), (scheme, scenario, seed, result.verdict, result.reason)


# Whether ``matches_expected`` accepts an outcome, on synthetic results: per
# row, an accept, a card-local reason, the expected reason and another wire
# reason.  ``tamper`` expects the ``reject`` class, so every wire reason
# matches it, and an accept or a card-local reason does not.
MATCH_TRUTH_TABLE = [
    *[(scheme, "honest", reason, reason is None)
      for scheme in SCHEMES for reason in (None, Reason.BIOMETRIC_MISMATCH, Reason.REPLAY)],
    *[(scheme, "replay", reason, reason is Reason.REPLAY)
      for scheme in SCHEMES
      for reason in (None, Reason.WRONG_PASSWORD, Reason.REPLAY, Reason.CHECKSUM_MISMATCH)],
    ("baseline", "wrong-password", None, False),
    ("baseline", "wrong-password", Reason.WRONG_PASSWORD, False),
    ("baseline", "wrong-password", Reason.CHECKSUM_MISMATCH, True),
    ("baseline", "wrong-password", Reason.REPLAY, False),
    ("improved", "wrong-password", None, False),
    ("improved", "wrong-password", Reason.BIOMETRIC_MISMATCH, False),
    ("improved", "wrong-password", Reason.WRONG_PASSWORD, True),
    ("improved", "wrong-password", Reason.CHECKSUM_MISMATCH, False),
    *[(scheme, "tamper", reason, reason is not None and reason not in LOCAL_REASONS)
      for scheme in SCHEMES for reason in (None, *Reason)],
]


@pytest.mark.parametrize("scheme,scenario,reason,matches", MATCH_TRUTH_TABLE)
def test_matches_expected_truth_table(scheme, scenario, reason, matches):
    result = ScenarioResult(scheme, scenario, seed=0, reason=reason, messages_sent=0,
                            hash_counts={"client": 0, "server": 0})
    assert matches_expected(result) is matches


def test_reason_values_are_not_verdict_classes():
    # A reason value never reads as a class, so a ``verdict=`` text has one
    # reading, and each expectation is a class or ``class:reason`` for a
    # reason of that class: ``matches_expected`` compares it with both the
    # verdict text and the class of a run.
    classes = {verdict_class(reason) for reason in (None, *Reason)}
    assert classes == {"accept", "local-reject", "reject"}
    assert classes.isdisjoint(reason.value for reason in Reason)
    for expected in EXPECTED_VERDICTS.values():
        verdict, _, reason = expected.partition(":")
        assert verdict in classes, expected
        assert not reason or verdict_class(Reason(reason)) == verdict, expected


@pytest.mark.parametrize("scheme,scenario", ALL_COMBOS)
def test_keys_present_exactly_when_accepted(scheme, scenario):
    _, result = run_scenario(scheme, scenario, seed=4)
    if result.verdict == "accept":
        assert result.client_key is not None
        assert result.client_key == result.server_key
    else:
        assert result.client_key is None and result.server_key is None


def test_message_counts():
    assert run_scenario("improved", "honest", 0)[1].messages_sent == 2
    assert run_scenario("baseline", "wrong-password", 0)[1].messages_sent == 1
    assert run_scenario("improved", "wrong-password", 0)[1].messages_sent == 0
    assert run_scenario("improved", "replay", 0)[1].messages_sent == 3
    assert run_scenario("improved", "double-login", 0)[1].messages_sent == 5


@pytest.mark.parametrize("scheme,scenario", ALL_COMBOS)
def test_transcripts_are_deterministic(scheme, scenario):
    first, _ = run_scenario(scheme, scenario, seed=11)
    second, _ = run_scenario(scheme, scenario, seed=11)
    assert first.render() == second.render()


# sha256 over every rendered transcript and result summary below. Any change to
# a transcript byte, a verdict, a reason, a message count or a hash count moves it.
GOLDEN_SWEEP_SHA256 = "29cbc622af00befc3f2107fd77e182e18dc8cfaab98accf845ba9624086188f4"


def test_golden_transcripts_for_every_scheme_scenario_seed_and_width():
    digest = hashlib.sha256()
    for width in (32, 1, 2):
        for scheme, scenario in ALL_COMBOS:
            for seed in range(10):
                transcript, r = run_scenario(scheme, scenario, seed, width)
                reason = r.reason.value if r.reason else "-"
                counts = r.hash_counts
                digest.update(transcript.render().encode())
                digest.update(
                    f"{r.verdict} {reason} {r.messages_sent} "
                    f"{counts['client']} {counts['server']}\n".encode()
                )
    assert digest.hexdigest() == GOLDEN_SWEEP_SHA256


def test_different_seeds_differ():
    a, _ = run_scenario("improved", "honest", seed=0)
    b, _ = run_scenario("improved", "honest", seed=1)
    assert a.render() != b.render()


@pytest.mark.parametrize("scheme,scenario", ALL_COMBOS)
def test_final_event_is_exactly_one_verdict(scheme, scenario):
    transcript, result = run_scenario(scheme, scenario, seed=2)
    final = transcript.events[-1]
    assert final.actor == "run"
    if result.verdict == "accept":
        assert final.kind == "accept"
        names = [name for name, _ in final.fields]
        assert names == ["client_key", "server_key"]
    else:
        assert final.kind == "reject"
        assert final.verdict == f"{result.verdict}:{result.reason.value}"
    # No earlier run-level verdict events.
    run_verdicts = [e for e in transcript.events[:-1] if e.actor == "run" and e.kind in ("accept", "reject")]
    assert run_verdicts == []


def test_wrong_password_change_transcripts_tell_the_story():
    baseline_t, baseline_r = run_scenario("baseline", "wrong-password-change", seed=3)
    # Two login attempts (new then old password), both rejected by the server.
    server_rejects = [e for e in baseline_t.events if e.actor == "server" and e.kind == "reject"]
    assert len(server_rejects) == 2
    assert baseline_r.verdict == "reject"

    improved_t, improved_r = run_scenario("improved", "wrong-password-change", seed=3)
    verdicts = [e.verdict for e in improved_t.events]
    assert "card-unchanged:ok" in verdicts
    assert improved_r.verdict == "accept"


def test_stolen_card_extraction_events():
    improved_t, _ = run_scenario("improved", "stolen-card", seed=5)
    verdicts = [e.verdict for e in improved_t.events]
    # Extraction verified before and after the password change.
    assert verdicts.count("identity-key-extraction:ok") == 2
    assert "card-breach" in verdicts

    baseline_t, _ = run_scenario("baseline", "stolen-card", seed=5)
    assert "identity-key-extraction:unavailable" in [e.verdict for e in baseline_t.events]


def test_double_login_replaces_entry_then_rejects_replay():
    transcript, result = run_scenario("improved", "double-login", seed=6)
    verdicts = [e.verdict for e in transcript.events]
    assert "nonce-replaced:ok" in verdicts
    assert verdicts[-1] == "reject:replay"
    assert result.messages_sent == 5


@pytest.mark.parametrize(
    "scheme,checks",
    [
        ("baseline", ["id-format:ok", "checksum:ok"]),
        ("improved", ["id-format:ok", "nonce-tag:ok", "checksum:ok"]),
    ],
)
def test_replay_scenario_rejects_after_all_other_checks_pass(scheme, checks):
    transcript, _ = run_scenario(scheme, "replay", seed=8)
    verdicts = [e.verdict for e in transcript.events]
    # The server's receive event for the replayed message carries no verdict.
    assert verdicts[verdicts.index("replay:0"):] == [
        "replay:0", "", *checks, "nonce-freshness:fail:replay", "reject:replay"
    ]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stale_replay_through_the_runner_lists_only_the_server_key(scheme):
    # Once a second login has replaced the stored nonce, resending the first
    # one passes as fresh: the server derives a key that no client holds.
    def script(env):
        _login_exchange(env, env.password)
        _login_exchange(env, env.password)
        return _replay_to_server(env, 0)

    transcript, result = _run(_Env(scheme, "replay", 0, 32), script)
    assert result.verdict == "accept"
    assert result.client_key is None and result.server_key is not None
    final = transcript.events[-1]
    assert (final.actor, final.kind, final.verdict) == ("run", "accept", "accept")
    assert final.fields == (("server_key", result.server_key),)
    derived = transcript.events[-2]
    assert (derived.actor, derived.kind) == ("server", "key-derived")
    assert derived.fields == (("session_key", result.server_key),)
    report = _text_report(0, result, transcript).splitlines()
    assert [line for line in report if "session key" in line] == [
        f"server session key: {result.server_key.hex()}"
    ]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_toy_width_verifier_collision_accepts_a_wrong_password(scheme):
    # With 1-byte digests the wrong password of seed 60 yields the real
    # password's verifier, hence the real identity key, and the server never
    # checks the password digest it unmasks: both schemes accept the login.
    env = _Env(scheme, "wrong-password", 60, 1)
    salt, template = env.card.salt, bytes(env.card.bio_template)

    def verifier(password):
        return raw_hash(1, raw_hash(1, salt, password), template)

    assert env.wrong_password != env.password
    assert verifier(env.wrong_password) == verifier(env.password) == bytes.fromhex("a1")
    _, result = run_scenario(scheme, "wrong-password", 60, 1)
    assert result.verdict == "accept"
    assert result.client_key is not None and result.client_key == result.server_key


def test_distinct_secret_draws_again_while_it_repeats_the_other(monkeypatch):
    # A real 6-24-byte draw never repeats the password, so feed repeats.
    env = _Env("improved", "wrong-password", 0, 32)
    draws = iter([b"same", b"same", b"new"])
    monkeypatch.setattr(env, "_secret", lambda: next(draws))
    assert env._distinct_secret(b"same") == b"new"


def test_runs_leave_no_reference_cycles():
    # A caught rejection kept alive together with its traceback forms a
    # cycle through the frames that holds a whole run (card, hashers,
    # transcript) until the cyclic collector runs; the scripts keep none.
    gc.collect()
    gc.disable()
    try:
        for scheme, scenario in ALL_COMBOS:
            run_scenario(scheme, scenario, seed=3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tamper_scenario_rejects_across_seeds():
    for scheme in SCHEMES:
        for seed in range(50):
            _, result = run_scenario(scheme, "tamper", seed)
            assert result.verdict == "reject", (scheme, seed, result.reason)


def test_hash_count_scenario_reports_delta_of_two():
    _, base = run_scenario("baseline", "hash-count", seed=9)
    _, improved_ = run_scenario("improved", "hash-count", seed=9)
    base_total = sum(base.hash_counts.values())
    improved_total = sum(improved_.hash_counts.values())
    assert improved_total - base_total == 2


def test_long_term_secrets_never_reach_the_transcript(capsys):
    seed = 13
    for scheme, scenario in ALL_COMBOS:
        # The same seed derives the same secrets as the run itself.
        env = _Env(scheme, scenario, seed, 32)
        secrets = (env.server.master_secret.hex(), env.server.shared_secret.hex())
        transcript, _ = run_scenario(scheme, scenario, seed)
        sinks = [transcript.render()]
        for fmt in ("text", "structured-lines"):
            main(["run", "--scheme", scheme, "--scenario", scenario, "--seed", str(seed),
                  "--format", fmt])
            sinks.append(capsys.readouterr().out)
        for sink in sinks:
            for secret in secrets:
                assert secret not in sink, (scheme, scenario)


def test_unknown_ids_raise():
    with pytest.raises(ValueError):
        run_scenario("improved", "no-such-scenario", 0)
    with pytest.raises(ValueError):
        run_scenario("no-such-scheme", "honest", 0)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -5$"):
        run_scenario("improved", "honest", -5)  # would render seed 5's transcript


@pytest.mark.parametrize("width", [32, 1, 2])
def test_measure_costs_phases_and_storage(width):
    report = measure_costs(width)
    assert report.phases["baseline"] == {
        "login (client)": 4,
        "authentication (server)": 6,
        "authentication (client)": 3,
    }
    assert report.phases["improved"] == {
        "login (client)": 4,
        "authentication (server)": 7,
        "authentication (client)": 4,
    }
    assert report.hash_delta == 2
    assert report.card_digests == {"baseline": 3, "improved": 4}
    assert report.storage_delta_digests == 1


def test_every_scheme_call_goes_through_the_module_attributes(monkeypatch):
    # perfbench/spans.py traces a scheme function by rebinding the module
    # attribute, so a runner call that bypassed it would go untraced.
    calls = {}
    for module in (baseline, improved):
        for name in ("register", "login", "authenticate", "verify_server", "change_password"):
            span = f"{module.__name__.rpartition('.')[2]}.{name}"
            calls[span] = 0

            def counted(*args, _span=span, _original=getattr(module, name), **kwargs):
                calls[_span] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    for scheme, scenario in ALL_COMBOS:
        run_scenario(scheme, scenario, 0)
    assert [span for span, count in calls.items() if count == 0] == []
