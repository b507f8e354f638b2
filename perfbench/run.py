"""smartauth benchmark: one command, three workloads, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scenario-sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run sets the workload up ``SETUP_REPEATS`` times,
half before and half after measuring for ``--seconds`` with tracing off
(median reported as ``setup_s``), and reports the end-to-end metrics.  With ``--trace 1`` it runs the
workload's fixed traced work twice on fresh set-ups, first untraced and then
with every public entry point wrapped in spans (see ``spans.py``), and
reports the per-layer metrics and the tracing overhead.  Report lines go
to stdout; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse
import json
import os
import platform
import resource
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

from spans import SPAN_NAMES, Tracer, span_costs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 8


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import smartauth from it."""
    package = SRC / "smartauth"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no smartauth package at {package}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import smartauth

    if Path(smartauth.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported smartauth from {smartauth.__file__}, not {package}")


def machine_context() -> list[str]:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return [
        f"nproc = {len(os.sched_getaffinity(0))}; machine = {platform.machine()}",
        f"python = {platform.python_version()} ({platform.python_implementation()})",
        f"loadavg at start = {load}",
    ]


def require_samples(workload, outcome) -> None:
    """Stop with an error when no operation succeeded, so there is nothing to time."""
    if workload.busy_s() == 0:
        raise SystemExit(f"error: no operation succeeded; first failures: {outcome.problems}")


def timed_setup(cls, seed: int, tmp: Path, outcome):
    start = perf_counter()
    workload = cls(seed, tmp, outcome)
    return workload, perf_counter() - start


def measure(cls, seed: int, seconds: int, tmp: Path, outcome) -> tuple[dict, list[str]]:
    # Half the set-ups run before the timed loop and half after it, so that
    # setup_s samples the machine over the whole run, as the loop does.
    setups = []
    workload = None
    for _ in range(SETUP_REPEATS // 2):
        workload = None  # free the previous set-up before building the next
        workload, elapsed = timed_setup(cls, seed, tmp, outcome)
        setups.append(elapsed)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        workload.step()
    lines = workload.finish()
    require_samples(workload, outcome)
    e2e, detail = workload.metrics()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload = None
    for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
        setups.append(timed_setup(cls, seed, tmp, outcome)[1])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        **e2e,
    }
    share = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    lines += detail + [
        f"setup runs: {', '.join(f'{s:.4f}' for s in setups)} s",
        f"failed_share = {share:.6f} ({outcome.failed} of {outcome.attempted} operations)",
    ]
    return metrics, lines


# Per-layer counts the workloads report themselves; 0 where a workload has none.
EXACT_COUNTS = (
    "improved.hashes_per_honest_exchange",
    "baseline.hashes_per_hash_count_run",
    "improved.hashes_per_hash_count_run",
)


def layer_metrics(tracer, workload, overhead: float, span_ns: float) -> dict:
    calls, raised, counters = tracer.calls, tracer.raised, tracer.counters
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_ms"] = (tracer.self_ms(name), "ms")
    accepted = calls["improved.authenticate"] - raised["improved.authenticate"]
    server_hashes = tracer.edges[("improved.authenticate", "hashing.hash")]
    logins = calls["improved.login"]
    checks = calls["runtime.replay_check_and_store"]
    exact = workload.exact_counts()
    metrics.update(
        {
            "improved.server_hashes_per_accept": (
                server_hashes / accepted if accepted else 0.0, "count"
            ),
            "improved.login.local_reject_share": (
                raised["improved.login"] / logins if logins else 0.0, "share"
            ),
            "runtime.replay.fresh_share": (
                counters["runtime.replay.fresh"] / checks if checks else 0.0, "share"
            ),
            "runtime.replay_db.entries": (counters["runtime.replay_db.entries"], "count"),
            "runtime.snapshot.bytes": (counters["runtime.snapshot.bytes"], "B"),
            "channel.render.bytes": (counters["channel.render.bytes"], "B"),
            "cli.output.bytes": (counters["cli.output.bytes"], "B"),
            **{name: (exact.get(name, 0), "count") for name in EXACT_COUNTS},
            "trace.overhead_share": (overhead, "share"),
            "trace.span_cost_ns": (span_ns, "ns"),
        }
    )
    return metrics


def trace(cls, seed: int, tmp: Path, outcome) -> tuple[dict, list[str]]:
    plain = cls(seed, tmp, outcome)
    for _ in range(cls.TRACE_STEPS):
        plain.step()
    plain.finish()
    tracer = Tracer()
    traced = cls(seed, tmp, outcome, tracer)
    with tracer:
        for _ in range(cls.TRACE_STEPS):
            traced.step()
    lines = traced.finish()
    require_samples(plain, outcome)
    require_samples(traced, outcome)
    overhead = traced.busy_s() / plain.busy_s() - 1
    span_ns, in_self_ns = span_costs()
    metrics = layer_metrics(tracer, traced, overhead, span_ns)
    # Smoke check: a layer records calls exactly on the workloads predicted to use it.
    for name in SPAN_NAMES:
        used = tracer.calls[name] > 0
        outcome.check(
            used == (name in cls.LAYERS),
            f"{name}: {tracer.calls[name]} calls, predicted {'> 0' if name in cls.LAYERS else '0'}",
        )
    spans = sum(tracer.calls.values())
    spans_path = OUT_DIR / f"spans-{cls.name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    lines += [
        f"traced work: {cls.TRACE_STEPS} steps; untraced {plain.busy_s():.4f} s, "
        f"traced {traced.busy_s():.4f} s, overhead {overhead:+.1%}",
        f"span cost: {span_ns:.0f} ns per traced call (no-op calibration), of which "
        f"{in_self_ns:.0f} ns stay in self times; {spans} spans x {span_ns:.0f} ns = "
        f"{spans * span_ns / 1e9:.4f} s of the {traced.busy_s() - plain.busy_s():.4f} s added",
        f"spans kept: {len(tracer.spans)} (dropped {tracer.dropped}) -> "
        f"{spans_path.relative_to(ROOT)}",
    ]
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    context = machine_context()

    import_program()
    from workloads import WORKLOADS, Outcome

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    outcome = Outcome()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT_DIR) as tmp:
        if args.trace:
            metrics, lines = trace(cls, args.seed, Path(tmp), outcome)
        else:
            metrics, lines = measure(cls, args.seed, args.seconds, Path(tmp), outcome)

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for line in context + lines:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {round(value, 6)} {unit}")
    for problem in outcome.problems:
        print(f"# FAILED: {problem}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
