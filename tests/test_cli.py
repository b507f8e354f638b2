"""Command line behaviour: exit codes, output determinism, seed handling."""

import hashlib
import os
import subprocess
import sys

import pytest

from smartauth import cli
from smartauth.cli import main
from smartauth.scenarios import measure_costs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_default_run_is_improved_honest(capsys):
    code, out = run_cli(capsys, "run")
    assert code == 0
    assert "verdict: accept" in out
    assert "messages sent: 2" in out
    assert run_cli(capsys, "run", "--trials", "1") == (code, out)


def test_honest_text_report_prints_matching_keys(capsys):
    code, out = run_cli(capsys, "run", "--scheme", "improved", "--scenario", "honest", "--seed", "5")
    assert code == 0
    client = next(l for l in out.splitlines() if l.startswith("client session key:"))
    server = next(l for l in out.splitlines() if l.startswith("server session key:"))
    assert client.split(": ")[1] == server.split(": ")[1]


def test_structured_output_is_byte_identical(capsys):
    argv = ("run", "--scheme", "baseline", "--scenario", "replay", "--seed", "9",
            "--format", "structured-lines")
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second
    assert first.splitlines()[0].startswith("step=0 ")


def test_trials_are_seeded_incrementally_and_ordered(capsys):
    _, combined = run_cli(capsys, "run", "--scenario", "honest", "--seed", "3",
                          "--trials", "3", "--format", "structured-lines")
    singles = []
    for seed in (3, 4, 5):
        _, out = run_cli(capsys, "run", "--scenario", "honest", "--seed", str(seed),
                         "--format", "structured-lines")
        singles.append(out)
    assert combined == "".join(singles)


def test_attack_scenario_reproduction_exits_zero(capsys):
    code, out = run_cli(capsys, "run", "--scheme", "improved", "--scenario", "replay",
                        "--seed", "2")
    assert code == 0
    assert "verdict: reject:replay" in out


def test_wrong_password_change_summary_lines(capsys):
    code, out = run_cli(capsys, "run", "--scheme", "baseline",
                        "--scenario", "wrong-password-change", "--trials", "5")
    assert code == 0
    assert "card corrupted: subsequent logins rejected: 5/5" in out
    code, out = run_cli(capsys, "run", "--scheme", "improved",
                        "--scenario", "wrong-password-change", "--trials", "5")
    assert code == 0
    assert "change rejected, card intact: logins accepted: 5/5" in out


def test_out_writes_file_and_leaves_stdout_clean(tmp_path, capsys):
    target = tmp_path / "transcript.txt"
    code, out = run_cli(capsys, "run", "--scenario", "honest", "--seed", "1",
                        "--format", "structured-lines", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("step=0 ")


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.log"
    with pytest.raises(SystemExit) as err:
        main(["run", "--out", str(target)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --out")
    assert len(captured.err.splitlines()) == 1
    assert not target.exists()


def test_unwritable_out_fails_before_the_first_trial(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "run_scenario", lambda *args: calls.append(args))
    with pytest.raises(SystemExit) as err:
        main(["run", "--trials", "5", "--out", str(tmp_path / "missing" / "x.log")])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("error: cannot write --out")
    assert calls == []


LAST_SEED = 2**64 - 1

# Each seed range past the last seed (diff runs ten from the base), with its whole usage message.
_PAST_THE_LAST = {
    ("run", "--seed", str(LAST_SEED), "--trials", "2"): f"seeds {LAST_SEED}..{LAST_SEED + 1} "
    f"pass 2**64-1; the largest base seed for 2 seeds is {LAST_SEED - 1}",
    ("diff", "--seed", str(LAST_SEED - 8)): f"seeds {LAST_SEED - 8}..{LAST_SEED + 1} "
    f"pass 2**64-1; the largest base seed for 10 seeds is {LAST_SEED - 9}",
    ("run", "--seed", "1", "--trials", str(LAST_SEED + 1)): f"seeds 1..{LAST_SEED + 1} "
    f"pass 2**64-1; the largest base seed for {LAST_SEED + 1} seeds is 0",
    ("run", "--trials", str(LAST_SEED + 2)): f"seeds 0..{LAST_SEED + 1} "
    f"pass 2**64-1; no base seed fits {LAST_SEED + 2} seeds",
}


@pytest.mark.parametrize("argv", list(_PAST_THE_LAST))
def test_seeds_past_the_last_are_a_usage_error(capsys, monkeypatch, argv):
    # Every seed a command runs must be one ``--seed`` accepts, so any trial reruns alone.
    calls = []
    monkeypatch.setattr(cli, "run_scenario", lambda *args: calls.append(args))
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert (err.value.code, calls) == (2, [])
    assert capsys.readouterr() == ("", f"error: {_PAST_THE_LAST[argv]}\n")


def test_run_exits_1_on_a_mismatch(capsys):
    # At width 1, seed 60's wrong password collides with the verifier and is accepted.
    code, out = run_cli(capsys, "run", "--hash", "toy8", "--scenario", "wrong-password", "--seed", "60")
    assert code == 1
    assert "matched: 0/1" in out


def test_largest_base_seeds_that_fit_run(capsys):
    code, out = run_cli(capsys, "run", "--seed", str(LAST_SEED - 1), "--trials", "2")
    assert code == 0
    assert f"seed={LAST_SEED} ==" in out
    code, out = run_cli(capsys, "diff", "--seed", str(LAST_SEED - 9))
    assert code == 0
    assert out.rstrip().endswith("-- confirmed")


def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("SMARTAUTH_SEED", "77")
    _, via_env = run_cli(capsys, "run", "--format", "structured-lines")
    seeds_over_env = run_cli(capsys, "diff", "--seeds", "1")  # the variable is only a default
    monkeypatch.delenv("SMARTAUTH_SEED")
    _, via_flag = run_cli(capsys, "run", "--seed", "77", "--format", "structured-lines")
    assert via_env == via_flag
    assert seeds_over_env == run_cli(capsys, "diff", "--seeds", "1")


def test_env_seed_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("SMARTAUTH_SEED", "not-a-number")
    with pytest.raises(SystemExit) as err:
        main(["run"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [["diff", "--seeds", "1"], ["cost"]])
def test_env_seed_is_checked_by_every_command(capsys, monkeypatch, argv):
    # Even ``diff --seeds``, which does not use the base seed, rejects a bad one.
    monkeypatch.setenv("SMARTAUTH_SEED", "not-a-number")
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "SMARTAUTH_SEED" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario", "nonexistent"],
        ["run", "--scheme", "thirdscheme"],
        ["run", "--trials", "0"],
        ["run", "--seed", "-1"],
        ["run", "--format", "yaml"],
        ["nonexistent-command"],
        [],
        ["diff", "--seed", "5", "--seeds", "1"],  # --seeds would drop --seed silently
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def test_diff_confirms_expected_divergence(capsys):
    code, out = run_cli(capsys, "diff", "--seeds", "1", "2")
    assert code == 0
    assert "divergence expected exactly on: wrong-password, wrong-password-change -- confirmed" in out
    lines = [l for l in out.splitlines() if l.startswith("wrong-password ")]
    assert "diverge" in lines[0]


def test_cost_reports_deltas(capsys):
    code, out = run_cli(capsys, "cost")
    assert code == 0
    assert "hash delta (improved - baseline): 2" in out
    assert "storage delta: 1 digest (32 bytes)" in out


def test_cost_exits_one_when_the_deltas_break_the_contract(capsys, monkeypatch):
    report = measure_costs()
    report.phases["improved"]["login (client)"] += 1
    assert report.hash_delta == 3
    monkeypatch.setattr(cli, "measure_costs", lambda digest_size: report)
    code, out = run_cli(capsys, "cost")
    assert code == 1
    assert out.splitlines()[-1] == (
        "cost contract violated: expected hash delta 2 and storage delta 1 digest"
    )


def test_diff_exits_one_on_a_toy_width_collision(capsys):
    # At width 1, seed 60's wrong password has the real verifier, so the
    # schemes agree on that seed of ``wrong-password``.
    code, out = run_cli(capsys, "diff", "--hash", "toy8", "--seed", "55")
    assert code == 1
    lines = out.splitlines()
    assert next(l for l in lines if l.startswith("wrong-password ")).endswith(" diverge  9/10 FAIL")
    assert lines[-1].endswith(" -- VIOLATED")


@pytest.mark.parametrize("name, width", [("standard", 32), ("toy8", 1), ("toy16", 2)])
def test_cost_toy_width_reports_small_digests(capsys, name, width):
    code, out = run_cli(capsys, "cost", "--hash", name)
    assert code == 0
    assert f"storage delta: 1 digest ({width} bytes)" in out


def test_diff_seeds_do_not_leak_into_the_next_call(capsys):
    _, first = run_cli(capsys, "diff", "--seeds", "1", "2")
    _, second = run_cli(capsys, "diff")
    assert " 2/2 ok" in first.splitlines()[0]
    assert " 10/10 ok" in second.splitlines()[0]


def test_run_format_does_not_leak_into_the_next_call(capsys):
    _, first = run_cli(capsys, "run", "--format", "structured-lines")
    _, second = run_cli(capsys, "run")
    assert "expected verdict:" not in first
    assert "expected verdict: accept; matched: 1/1" in second


# A failed write to stdout ends every command the same way, whether each print
# reaches the pipe at once or waits in the buffer for the flush in ``main``.
STDOUT_MODES = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


def _child_env(unbuffered: bool) -> dict[str, str]:
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@STDOUT_MODES
@pytest.mark.parametrize(
    "argv", [["run", "--trials", "200"], ["diff", "--seed", "3"], ["cost"]], ids=["run", "diff", "cost"]
)
def test_a_closed_pipe_leaks_no_descriptor(argv, unbuffered):
    # The child's stdout is a pipe whose reader is already closed.  A second
    # call meets the same gone reader: the first left fd 1 as it found it.
    script = (
        "import os, sys\n"
        "from smartauth import cli\n"
        "read_end, write_end = os.pipe()\n"
        "os.close(read_end)\n"
        "os.dup2(write_end, sys.stdout.fileno())\n"
        "os.close(write_end)\n"
        "before = len(os.listdir('/proc/self/fd'))\n"
        f"first = cli.main({argv!r})\n"
        f"second = cli.main({argv!r})\n"
        "after = len(os.listdir('/proc/self/fd'))\n"
        "print(first, second, after - before, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env=_child_env(unbuffered),
    )
    assert proc.stderr.split() == ["1", "1", "0"]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "smartauth", "run", "--scenario", "honest", "--seed", "0"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "verdict: accept" in proc.stdout


@STDOUT_MODES
@pytest.mark.parametrize(
    "argv, first_line",
    [(["run", "--trials", "2000"], b"== trial 0 "), (["diff", "--seed", "3"], None), (["cost"], None)],
    ids=["run", "diff", "cost"],
)
def test_a_closed_pipe_stops_run_without_a_traceback(argv, first_line, unbuffered):
    proc = subprocess.Popen(
        [sys.executable, "-m", "smartauth", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(unbuffered),
    )
    # Without a line to read first, the reader is gone before the child's
    # first write.
    if first_line is not None:
        assert proc.stdout.readline().startswith(first_line)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.parametrize(
    "argv, code",
    [(["run"], 1), (["diff", "--seed", "3"], 1), (["cost"], 1), (["run", "--out", "{out}"], 0)],
    ids=["run", "diff", "cost", "run-out"],
)
def test_a_stdout_closed_at_start_is_a_gone_reader(argv, code, tmp_path, capsys):
    # The child closes fd 1 and then becomes the command, so ``sys.stdout`` is
    # None from the start; only ``run --out`` writes nothing there.
    out = tmp_path / "out.txt"
    argv = [arg.format(out=out) for arg in argv]
    launcher = (
        "import os, sys\n"
        "os.close(1)\n"
        "os.execv(sys.executable, [sys.executable, '-m', 'smartauth', *sys.argv[1:]])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, *argv], stderr=subprocess.PIPE, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (code, b"")
    if "--out" in argv:
        assert out.read_text(encoding="utf-8") == run_cli(capsys, "run")[1]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@STDOUT_MODES
@pytest.mark.parametrize("argv", [["run"], ["diff", "--seed", "3"], ["cost"]], ids=["run", "diff", "cost"])
def test_a_full_stdout_is_a_usage_error(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "smartauth", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
            env=_child_env(unbuffered),
        )
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: cannot write output: ")


# sha256 over the stdout and exit code of each command below, in order. It pins
# the diff lines, the cost table and the seed handling, which the transcript pin
# in test_scenarios.py does not reach.
GOLDEN_CLI_SHA256 = "b4315bfcb3e1b56a98299e752be27f253bba9d18e042460f524c5c13a934241c"
GOLDEN_CLI_COMMANDS = (
    ({}, ["cost"]),
    ({}, ["cost", "--hash", "toy8"]),
    ({}, ["diff", "--seed", "3"]),
    ({}, ["diff", "--hash", "toy16", "--seeds", "1", "2", "5"]),
    ({"SMARTAUTH_SEED": "9"}, ["run", "--scenario", "tamper", "--trials", "3", "--hash", "toy16"]),
)


def test_golden_cli_output(capsys, monkeypatch):
    digest = hashlib.sha256()
    for env, argv in GOLDEN_CLI_COMMANDS:
        monkeypatch.delenv("SMARTAUTH_SEED", raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        code, out = run_cli(capsys, *argv)
        digest.update(f"{code}\n".encode() + out.encode())
    assert digest.hexdigest() == GOLDEN_CLI_SHA256
