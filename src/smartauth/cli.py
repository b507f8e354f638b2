"""Command line front end: run scenarios, diff the schemes, report costs.

Exit codes: 0 when the observed outcome matches the scenario's expected
outcome (for attack scenarios the expected outcome is the documented
rejection), 1 on a mismatch or a stdout closed early or at start, 2 on
usage errors, such as a trial seed past 2**64-1 (which ``--seed`` could
not rerun), an unwritable ``--out`` or an unwritable stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from typing import NoReturn

from .scenarios import (
    DIVERGING_SCENARIOS,
    EXPECTED_VERDICTS,
    SCENARIOS,
    SCHEMES,
    SUMMARY_CAPTIONS,
    ScenarioResult,
    matches_expected,
    measure_costs,
    run_scenario,
    verdict_class,
)

# The one table that names a digest width, in bytes.
HASH_CHOICES = {"standard": 32, "toy8": 1, "toy16": 2}
_SEED_LIMIT = 2**64


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < _SEED_LIMIT:
        raise argparse.ArgumentTypeError("seed must be a 64-bit unsigned integer")
    return value


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    raw = os.environ.get("SMARTAUTH_SEED")
    if raw is None:
        return 0
    try:
        return _seed_type(raw)
    except (ValueError, argparse.ArgumentTypeError):
        _usage_error("SMARTAUTH_SEED must be a 64-bit unsigned integer")


def _seed_range(seed: int, count: int) -> range:
    """The ``count`` seeds from ``seed`` on, each one that ``--seed`` accepts."""
    if seed + count > _SEED_LIMIT:
        fit = f"the largest base seed for {count} seeds is {_SEED_LIMIT - count}"
        if count > _SEED_LIMIT:
            fit = f"no base seed fits {count} seeds"
        _usage_error(f"seeds {seed}..{seed + count - 1} pass 2**64-1; {fit}")
    return range(seed, seed + count)


def _text_report(trial: int, result: ScenarioResult, transcript) -> str:
    lines = [
        f"== trial {trial} scheme={result.scheme} scenario={result.scenario} seed={result.seed} ==",
        transcript.render().rstrip("\n"),
        f"verdict: {result.verdict_text}",
        f"messages sent: {result.messages_sent}",
        "hash calls: client={client} server={server}".format(**result.hash_counts),
    ]
    for side, key in (("client", result.client_key), ("server", result.server_key)):
        if key is not None:
            lines.append(f"{side} session key: {key.hex()}")
    return "\n".join(lines) + "\n"


def _run_summary(args, matched: int) -> str:
    key = (args.scheme, args.scenario)
    tally = f"{matched}/{args.trials}"
    lines = [f"expected verdict: {verdict_class(EXPECTED_VERDICTS[key])}; matched: {tally}"]
    if key in SUMMARY_CAPTIONS:
        lines.append(f"{SUMMARY_CAPTIONS[key]}: {tally}")
    return "\n".join(lines) + "\n"


def _write_trials(args, seeds: range, digest_size: int, out) -> int:
    """Write each trial's report as soon as it is built; 0 iff every trial matched."""
    matched = 0
    for trial, trial_seed in enumerate(seeds):
        transcript, result = run_scenario(args.scheme, args.scenario, trial_seed, digest_size)
        matched += matches_expected(result)
        if args.format == "structured-lines":
            out.write(transcript.render())
        else:
            out.write(_text_report(trial, result, transcript))
    if args.format == "text":
        out.write(_run_summary(args, matched))
    return 0 if matched == len(seeds) else 1


def cmd_run(args, seed: int, digest_size: int) -> int:
    seeds = _seed_range(seed, args.trials)
    if args.out is None:
        return _write_trials(args, seeds, digest_size, sys.stdout)
    # Opened before the first trial, so an unwritable file fails at once; a
    # write that fails later (a full disk) is the same usage error.
    try:
        with open(args.out, "w", encoding="utf-8") as out:
            return _write_trials(args, seeds, digest_size, out)
    except OSError as exc:
        _usage_error(f"cannot write --out: {exc}")


def cmd_diff(args, seed: int, digest_size: int) -> int:
    if args.seeds and args.seed is not None:
        _usage_error("--seed and --seeds cannot be combined")
    seeds = args.seeds or _seed_range(seed, 10)
    all_ok = True
    for scenario in SCENARIOS:
        expect_diverge = scenario in DIVERGING_SCENARIOS
        matched = 0
        for trial_seed in seeds:
            results = [run_scenario(scheme, scenario, trial_seed, digest_size)[1] for scheme in SCHEMES]
            matched += (len({result.verdict for result in results}) > 1) == expect_diverge
        ok = matched == len(seeds)
        all_ok &= ok
        # The last seed's verdicts stand for the scenario.
        verdicts = " ".join(
            f"{scheme}={result.verdict_text:<{width}}"
            for scheme, result, width in zip(SCHEMES, results, (24, 28))
        )
        print(
            f"{scenario:<24} {verdicts} {'diverge' if expect_diverge else 'agree':<8} "
            f"{matched}/{len(seeds)} {'ok' if ok else 'FAIL'}"
        )
    print(
        "divergence expected exactly on: " + ", ".join(DIVERGING_SCENARIOS)
        + (" -- confirmed" if all_ok else " -- VIOLATED")
    )
    return 0 if all_ok else 1


def cmd_cost(args, seed: int, digest_size: int) -> int:
    report = measure_costs(digest_size)
    print("hash invocations per honest run (registration and biometric gate excluded)")
    print()
    columns = [[scheme, *report.phases[scheme].values(), report.total(scheme)] for scheme in SCHEMES]
    for label, *cells in zip(["phase", *report.phases[SCHEMES[0]], "total"], *columns):
        print(f"{label:<28}" + "".join(f" {cell:>8}" for cell in cells))
    print()
    print(f"hash delta (improved - baseline): {report.hash_delta}")
    storage = (f"{scheme}={report.card_digests[scheme]} digests + salt" for scheme in SCHEMES)
    print("card storage: " + ", ".join(storage))
    print(
        f"storage delta: {report.storage_delta_digests} digest "
        f"({report.storage_delta_digests * digest_size} bytes)"
    )
    ok = report.hash_delta == 2 and report.storage_delta_digests == 1
    if not ok:
        print("cost contract violated: expected hash delta 2 and storage delta 1 digest")
    return 0 if ok else 1


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: every choice is a module constant."""
    parser = argparse.ArgumentParser(
        prog="smartauth",
        description="Run, compare, and cost two smart-card authentication schemes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed_type, default=None,
                        help="base seed (default: SMARTAUTH_SEED or 0)")
    common.add_argument("--hash", choices=sorted(HASH_CHOICES), default="standard")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[common],
                           help="run one scenario and print its transcript")
    run_p.add_argument("--scheme", choices=SCHEMES, default="improved")
    run_p.add_argument("--scenario", choices=SCENARIOS, default="honest")
    run_p.add_argument("--trials", type=_positive, default=1,
                       help="repeat with seeds seed, seed+1, ...")
    run_p.add_argument("--out", default=None, help="write output to this file instead of stdout")
    run_p.add_argument("--format", choices=("text", "structured-lines"), default="text")
    run_p.set_defaults(func=cmd_run)

    diff_p = sub.add_parser("diff", parents=[common],
                            help="run every scenario under both schemes and compare")
    diff_p.add_argument("--seeds", type=_seed_type, nargs="+", default=None,
                        help="seeds to compare; excludes --seed (default: 10 from the base seed)")
    diff_p.set_defaults(func=cmd_diff)

    cost_p = sub.add_parser("cost", parents=[common],
                            help="per-phase hash counts and card storage")
    cost_p.set_defaults(func=cmd_cost)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if sys.stdout is None:  # fd 1 closed at start: a write fails as to a gone reader
        read_end, write_end = os.pipe()
        os.close(read_end)
        # Like the standard streams, it leaves its descriptor to the process exit.
        sys.stdout = open(write_end, "w", encoding="utf-8", closefd=False)
    try:
        # Resolved even when ``diff --seeds`` makes the seed unused, so a bad
        # SMARTAUTH_SEED is always an error.
        code = args.func(args, _resolve_seed(args.seed), HASH_CHOICES[args.hash])
        sys.stdout.flush()  # a buffered write fails here, not at exit
        return code
    except OSError as exc:
        # The reader is gone (``run | head``) or stdout is full: run no more,
        # and point stdout at devnull so the exit flush raises nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return 1
        _usage_error(f"cannot write output: {exc}")
