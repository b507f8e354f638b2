"""Two smart-card authentication schemes with an attack-reproduction runtime.

``baseline`` is the original scheme, flaws preserved on purpose;
``improved`` is the hardened variant.  ``run_scenario`` drives either one
through an adversarial channel and returns a deterministic transcript.
"""

from . import baseline, improved
from .channel import AdversarialChannel, Event, Tamper, Transcript
from .hashing import Digest, DigestRng, Hasher
from .runtime import (
    Reason,
    Rejected,
    RegistrationCenter,
    ServerState,
    SnapshotError,
    check_id_format,
    load_replay_db,
    replay_check_and_store,
    save_replay_db,
)
from .scenarios import (
    EXPECTED_VERDICTS,
    SCENARIOS,
    SCHEMES,
    CostReport,
    ScenarioResult,
    matches_expected,
    measure_costs,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AdversarialChannel",
    "CostReport",
    "Digest",
    "DigestRng",
    "Event",
    "EXPECTED_VERDICTS",
    "Hasher",
    "Reason",
    "Rejected",
    "RegistrationCenter",
    "SCENARIOS",
    "SCHEMES",
    "ScenarioResult",
    "ServerState",
    "SnapshotError",
    "Tamper",
    "Transcript",
    "baseline",
    "check_id_format",
    "improved",
    "load_replay_db",
    "matches_expected",
    "measure_costs",
    "replay_check_and_store",
    "run_scenario",
    "save_replay_db",
    "__version__",
]
