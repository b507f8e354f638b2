"""Transcript recording and the in-memory adversarial message channel.

Every message between client and server passes through the channel, which
records a send and a receive event and applies the active adversary
policy.  The passive policy delivers messages untouched and in order;
tamper flips one bit of one named field; replay re-delivers a captured
message on demand.  Every adversary action lands in the transcript.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

EVENT_KINDS = (
    "send",
    "receive",
    "verify",
    "reject",
    "accept",
    "adversary-action",
    "key-derived",
)


class Event(NamedTuple):
    """One transcript record; fields are (name, bytes) pairs sorted by name, rendered as hex."""

    step: int
    actor: str
    kind: str
    fields: tuple[tuple[str, bytes], ...] = ()
    verdict: str = ""

    def render(self) -> str:
        step, actor, kind, fields, verdict = self
        pairs = "".join([f" {name}={value.hex()}" for name, value in fields])
        return f"step={step} actor={actor} kind={kind}{pairs} verdict={verdict or '-'}"


def message_fields(message: object) -> tuple[tuple[str, bytes], ...]:
    """A wire message's field values, in declaration order: a frozen
    dataclass's ``__init__`` sets exactly its fields, in that order."""
    return tuple(vars(message).items())


class Transcript:
    """Append-only event log; renders to stable one-line-per-event text."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def add(
        self,
        actor: str,
        kind: str,
        fields: tuple[tuple[str, bytes], ...] = (),
        verdict: str = "",
    ) -> Event:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        event = Event(len(self.events), actor, kind, tuple(sorted(fields)), verdict)
        self.events.append(event)
        return event

    def render(self) -> str:
        return "\n".join([event.render() for event in self.events]) + "\n"


@dataclass(frozen=True)
class Tamper:
    """Flip ``bit_index`` of ``field`` on the first in-flight message that has it."""

    field: str
    bit_index: int


def flip_bit(data: bytes, bit_index: int) -> bytes:
    if not 0 <= bit_index < len(data) * 8:
        raise ValueError(f"bit index {bit_index} out of range for {len(data)} bytes")
    out = bytearray(data)
    out[bit_index // 8] ^= 1 << (bit_index % 8)
    return bytes(out)


def tamper_message(message, field: str, bit_index: int):
    """Return a copy of the message with one bit of one field flipped."""
    value = getattr(message, field)
    return replace(message, **{field: type(value)(flip_bit(bytes(value), bit_index))})


class AdversarialChannel:
    """Synchronous channel between the actors, with one adversary policy.

    ``sent`` counts every message placed on the wire, including replays.
    ``captured`` keeps each transmitted message (as the sender offered
    it) so replay scenarios can resend one verbatim.
    """

    def __init__(self, transcript: Transcript, policy: Tamper | None = None) -> None:
        self.transcript = transcript
        self.policy = policy
        self.captured: list = []
        self.sent = 0

    def transmit(self, sender: str, receiver: str, message):
        """Carry one message; returns what arrives."""
        self.captured.append(message)
        self.transcript.add(sender, "send", message_fields(message))
        if self.policy is not None and hasattr(message, self.policy.field):
            message = tamper_message(message, self.policy.field, self.policy.bit_index)
            self._act(f"tamper:{self.policy.field}:bit{self.policy.bit_index}")
            self.policy = None  # one flip per scenario
        return self._deliver(receiver, message)

    def replay(self, index: int, receiver: str):
        """Adversary re-delivers a previously captured message verbatim."""
        message = self.captured[index]  # a bad index raises before any event
        self._act(f"replay:{index}")
        return self._deliver(receiver, message)

    def _deliver(self, receiver: str, message):
        """Count one message on the wire and record it as it arrives."""
        self.sent += 1
        self.transcript.add(receiver, "receive", message_fields(message))
        return message

    def _act(self, action: str) -> None:
        self.transcript.add("adversary", "adversary-action", verdict=action)
