"""Span tracing around smartauth's public entry points, from outside the package.

``Tracer.patch`` rebinds each traced function or method to a wrapper that
records a span (name, trace id, span id, parent span, start, end) and
aggregates call counts and self time.  Module-level functions are rebound
in every ``smartauth`` module that holds them, because ``baseline`` and
``improved`` import ``replay_check_and_store`` by name and ``cli`` imports
``run_scenario`` by name: patching only the defining module would lose
those spans.  ``Tracer.restore`` puts every original back.

Self time is a span's duration minus the time its direct child spans
cover, where a child covers its whole wrapper call, bookkeeping included:
most of the tracer's own cost lands in no span's self time.  ``span_costs``
measures that cost per span, and the part that does stay in self time.
Aggregates are kept for every call; raw spans are kept in memory up to
``MAX_SPANS`` and written out as JSON lines at the end.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

MAX_SPANS = 50_000
CALIBRATION_CALLS = 20_000
CALIBRATION_ROUNDS = 5


# (span name, module, class name or None for a module function, attribute).
TARGETS = (
    ("hashing.hash", "smartauth.hashing", "Hasher", "hash"),
    ("hashing.hash_uncounted", "smartauth.hashing", "Hasher", "hash_uncounted"),
    ("hashing.xor", "smartauth.hashing", "Digest", "__xor__"),
    ("hashing.rng", "smartauth.hashing", "DigestRng", "digest"),
    ("hashing.rng", "smartauth.hashing", "DigestRng", "salt"),
    *(
        (f"{scheme}.{fn}", f"smartauth.{scheme}", None, fn)
        for scheme in ("baseline", "improved")
        for fn in ("register", "login", "authenticate", "verify_server", "change_password")
    ),
    ("runtime.replay_check_and_store", "smartauth.runtime", None, "replay_check_and_store"),
    ("runtime.save_replay_db", "smartauth.runtime", None, "save_replay_db"),
    ("runtime.load_replay_db", "smartauth.runtime", None, "load_replay_db"),
    ("channel.transmit", "smartauth.channel", "AdversarialChannel", "transmit"),
    ("channel.replay", "smartauth.channel", "AdversarialChannel", "replay"),
    ("channel.Transcript.add", "smartauth.channel", "Transcript", "add"),
    ("channel.Transcript.render", "smartauth.channel", "Transcript", "render"),
    ("scenarios.run_scenario", "smartauth.scenarios", None, "run_scenario"),
    ("cli.main", "smartauth.cli", None, "main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TARGETS))


# Observers record a layer's own counts from a call's arguments and result.
def _observe_replay(counters, args, result):
    counters["runtime.replay.fresh"] += bool(result)
    counters["runtime.replay_db.entries"] = max(
        counters["runtime.replay_db.entries"], len(args[0].replay_db)
    )


def _observe_save(counters, args, result):
    counters["runtime.snapshot.bytes"] += os.path.getsize(args[1])
    counters["runtime.replay_db.entries"] = max(
        counters["runtime.replay_db.entries"], len(args[0].replay_db)
    )


def _observe_load(counters, args, result):
    counters["runtime.replay_db.entries"] = max(counters["runtime.replay_db.entries"], len(result))


def _observe_render(counters, args, result):
    counters["channel.render.bytes"] += len(result.encode("utf-8"))


def _observe_main(counters, args, result):
    argv = list(args[0]) if args and args[0] else []
    if "--out" in argv:  # output written to a file, as the sweep does
        counters["cli.output.bytes"] += os.path.getsize(argv[argv.index("--out") + 1])


OBSERVERS = {
    "runtime.replay_check_and_store": _observe_replay,
    "runtime.save_replay_db": _observe_save,
    "runtime.load_replay_db": _observe_load,
    "channel.Transcript.render": _observe_render,
    "cli.main": _observe_main,
}

# A span with one of these names starts a new trace id: one scenario trial.
TRACE_ROOTS = frozenset({"scenarios.run_scenario"})


class Tracer:
    """Records spans for the patched entry points while active."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.raised: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.trace_id = 0
        self._next_trace = 0
        self._next_span = 0
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def new_trace(self) -> None:
        """Start a new trace id: one benchmark operation."""
        self._next_trace += 1
        self.trace_id = self._next_trace

    def _close(self, name: str, frame: list, parent, trace_id: int, start: int, end: int) -> None:
        """Record one finished span; its parent is credited by the caller."""
        self._stack.pop()
        self.calls[name] += 1
        self.self_ns[name] += end - start - frame[2]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((trace_id, frame[0], parent[0] if parent else 0, name, start, end))
        else:
            self.dropped += 1
        if parent is not None:
            self.edges[(parent[1], name)] += 1

    def _wrap(self, name: str, fn):
        tracer = self
        observe = OBSERVERS.get(name)
        root = name in TRACE_ROOTS

        # The parent of a span is credited with the whole wrapper call, from
        # ``entered`` to after the bookkeeping, so tracer cost stays out of its
        # self time.  Only the call itself lies between ``start`` and ``end``.
        def traced(*args, **kwargs):
            entered = perf_counter_ns()
            stack = tracer._stack
            parent = stack[-1] if stack else None
            tracer._next_span += 1
            if root:
                tracer.new_trace()
            # frame: [span id, name, time covered by children]
            frame = [tracer._next_span, name, 0]
            stack.append(frame)
            trace_id = tracer.trace_id
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter_ns()
                tracer.raised[name] += 1
                tracer._close(name, frame, parent, trace_id, start, end)
                if parent is not None:
                    parent[2] += perf_counter_ns() - entered
                raise
            end = perf_counter_ns()
            tracer._close(name, frame, parent, trace_id, start, end)
            if observe is not None:
                observe(tracer.counters, args, result)
            if parent is not None:
                parent[2] += perf_counter_ns() - entered
            return result

        return traced

    def patch(self) -> None:
        """Rebind every target, wherever a smartauth module holds it."""
        for name, module_name, owner_name, attr in TARGETS:
            module = sys.modules[module_name]
            if owner_name is not None:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "smartauth":
                    continue
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.patch()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def self_ms(self, name: str) -> float:
        return self.self_ns[name] / 1e6

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for trace_id, span_id, parent_id, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "trace": trace_id,
                            "span": span_id,
                            "parent": parent_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )


def span_costs() -> tuple[float, float]:
    """What one traced call adds to an untraced one, and how much of it stays in self time.

    Times ``CALIBRATION_CALLS`` calls of a no-op from a loop, plain and then
    with both the loop and the no-op wrapped, so each call takes the child
    path (parent frame, edge count, parent credit) as nested spans do.
    Returns medians over ``CALIBRATION_ROUNDS``, in ns per call: the time
    added, and the part of it still counted in the two spans' self times
    (timer reads and the call through the wrapper).
    """

    def noop() -> None:
        return None

    def loop(fn) -> None:
        for _ in range(CALIBRATION_CALLS):
            fn()

    added, in_self = [], []
    for _ in range(CALIBRATION_ROUNDS):
        tracer = Tracer()
        traced_noop = tracer._wrap("calibration.noop", noop)
        traced_loop = tracer._wrap("calibration.loop", loop)
        start = perf_counter_ns()
        loop(noop)
        plain = perf_counter_ns() - start
        start = perf_counter_ns()
        traced_loop(traced_noop)
        added.append((perf_counter_ns() - start - plain) / CALIBRATION_CALLS)
        in_self.append((sum(tracer.self_ns.values()) - plain) / CALIBRATION_CALLS)
    return statistics.median(added), statistics.median(in_self)
