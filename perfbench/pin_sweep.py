"""Regenerate ``sweep_pins.json``: the sha256 of one scenario-sweep pass per seed.

Run from the root of a checkout whose output is known to be right (the
repository's tests pass), after a change that alters the sweep's output on
purpose:

    python3 perfbench/pin_sweep.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from run import OUT_DIR, import_program

PIN_SEEDS = 64


def main() -> None:
    import_program()
    from workloads import PINS_PATH, Outcome, ScenarioSweep

    outcome = Outcome()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT_DIR) as tmp:
        digests = {
            str(seed): ScenarioSweep(seed, Path(tmp), outcome).reference_digest
            for seed in range(PIN_SEEDS)
        }
    if outcome.failed:
        raise SystemExit(f"error: sweep failed while pinning: {outcome.problems}")
    pins = {"trials": ScenarioSweep.TRIALS, "digests": digests}
    PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
