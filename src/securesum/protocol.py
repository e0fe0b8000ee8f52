"""Three-party XOR computation protocols with fully recorded transcripts.

Party 1 (Alice) holds x, party 2 (Bob) holds y, party 3 (Charlie) must
output x xor y. The registry `PROTOCOLS` describes each scheme by two flags,
and one runner, `run`, drives every scheme from them. Each run returns the
decoded output together with a transcript of every message in the order
sent; message payloads are always computed from the sending party's own
inputs, its private randomness, and the messages it has already received,
so a transcript can be replayed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

from .codes import LinearCode
from .errors import ConfigurationError, ContractViolation
from .gf2 import Gf2Vector

__all__ = [
    "PartyId",
    "Message",
    "Transcript",
    "RunOutcome",
    "PROTOCOL_IDS",
    "run",
    "nominal_rates",
]


@dataclass(frozen=True)
class ProtocolSpec:
    """One scheme, described by two facts; everything else is derived from them.

    Each party sends a linear map of its block to Charlie. `coded`: the map is
    the syndrome H·input, so the scheme needs a code and Charlie decodes with
    its coset leaders; otherwise the block itself is sent. `masked`: Alice
    deals a one-time-pad key as long as a message, which pads both messages to
    Charlie and is what the 1-2 link carries.
    """

    name: str
    coded: bool
    masked: bool

    def lengths(self, n: int, m: int | None) -> tuple[int, int]:
        """(message length, key length) at block length n and syndrome length m."""
        if self.coded and m is None:
            raise ConfigurationError(f"{self.name} needs a code")
        mlen = m if self.coded else n
        return mlen, mlen if self.masked else 0


PROTOCOLS = {spec.name: spec for spec in (
    ProtocolSpec("secure-km", coded=True, masked=True),
    ProtocolSpec("plain-km", coded=True, masked=False),
    ProtocolSpec("zero-error-otp", coded=False, masked=True),
)}
PROTOCOL_IDS = tuple(PROTOCOLS)


def protocol_spec(protocol_id: str) -> ProtocolSpec:
    spec = PROTOCOLS.get(protocol_id)
    if spec is None:
        raise ConfigurationError(f"unknown protocol id: {protocol_id!r}")
    return spec


def check_instance(protocol_id: str, code: LinearCode | None, n: int) -> tuple[ProtocolSpec, int, int]:
    """(spec, message length, key length) of one instance, after checking any code."""
    spec = protocol_spec(protocol_id)
    if code is not None and code.n != n:
        raise ContractViolation(f"code length {code.n} != source length {n}")
    return (spec, *spec.lengths(n, None if code is None else code.m))


class PartyId(IntEnum):
    ALICE = 1
    BOB = 2
    CHARLIE = 3


ALICE, BOB, CHARLIE = PartyId  # read once: on Python 3.11 enum class attributes are slow


class Message(NamedTuple("Message", [("round", int), ("sender", PartyId), ("receiver", PartyId),
                                     ("payload", Gf2Vector)])):
    __slots__ = ()

    def __new__(cls, round: int, sender: PartyId, receiver: PartyId, payload: Gf2Vector):
        if sender == receiver:
            raise ContractViolation("a party cannot message itself")
        return tuple.__new__(cls, (round, sender, receiver, payload))

    _make = classmethod(lambda cls, values: cls(*values))  # `_replace` builds through it: check there too


_NO_PAYLOAD = Gf2Vector.zeros(0)


@dataclass(frozen=True, slots=True)
class Transcript:
    messages: tuple[Message, ...]
    _links: dict[tuple[PartyId, PartyId], Gf2Vector] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        links = {_link(m.sender, m.receiver): m.payload for m in self.messages}
        if len(links) < len(self.messages):
            a, b = max(links, key=[_link(m.sender, m.receiver) for m in self.messages].count)
            raise ContractViolation(f"the {a.name}-{b.name} link carries more than one message")
        object.__setattr__(self, "_links", links)

    def link_payload(self, a: PartyId, b: PartyId) -> Gf2Vector:
        """The payload of the one message on a link, or no bits."""
        return self._links.get(_link(a, b), _NO_PAYLOAD)


def _link(a: PartyId, b: PartyId) -> tuple[PartyId, PartyId]:
    """The key of the link between two parties: the pair in increasing order."""
    return (a, b) if a < b else (b, a)


RunOutcome = NamedTuple("RunOutcome", [("z_hat", Gf2Vector), ("transcript", Transcript), ("correct", bool)])


def nominal_rates(protocol_id: str, n: int, m: int | None) -> tuple[float, float, float, float]:
    """(r13, r23, r12, rho) fixed by the message and key lengths."""
    mlen, klen = protocol_spec(protocol_id).lengths(n, m)
    return (mlen / n, mlen / n, klen / n, klen / n)


def _charlie_output(transcript: Transcript, code: LinearCode | None) -> Gf2Vector:
    """The xor of Charlie's two link payloads, decoded when there is a code."""
    m13 = transcript.link_payload(ALICE, CHARLIE)
    m23 = transcript.link_payload(BOB, CHARLIE)
    return m13 ^ m23 if code is None else code.decode(m13 ^ m23)


def run(protocol_id: str, code: LinearCode | None, x: Gf2Vector, y: Gf2Vector,
        k: Gf2Vector | None = None) -> RunOutcome:
    """One run of the named scheme on Alice's x, Bob's y and Alice's key k.

    Each party's message to Charlie is its syndrome H·input when the scheme is
    coded, else its block. A masked scheme first deals k to Bob and pads both
    of those messages with it; an unmasked one takes no key, or an empty one.
    On `Gf2Batch`es, one run per word, every payload but an empty 1-2 link and
    z_hat are batches too, and `correct` is a bool array.
    """
    spec = protocol_spec(protocol_id)
    if y.n != x.n:
        raise ContractViolation(f"inputs must share one length, got {x.n} and {y.n}")
    if not spec.coded:
        code, a, b = None, x, y
    elif code is None:
        raise ConfigurationError(f"{protocol_id} needs a code")
    else:
        a, b = code.syndrome(x), code.syndrome(y)  # each checks its input's length
    if not spec.masked:
        if k is not None and k.n:
            raise ContractViolation(f"{protocol_id} takes no key, got {k.n} bits")
        transcript = Transcript((Message(1, ALICE, CHARLIE, a), Message(1, BOB, CHARLIE, b)))
    elif k is None or k.n != a.n:
        raise ContractViolation(f"key must have length {a.n}, got {'none' if k is None else k.n}")
    else:
        m12 = Message(1, ALICE, BOB, k)
        # Bob masks with the bits he received, not with Alice's local variable.
        m23 = Message(2, BOB, CHARLIE, m12.payload ^ b)
        transcript = Transcript((m12, Message(1, ALICE, CHARLIE, k ^ a), m23))
    z_hat = _charlie_output(transcript, code)
    return RunOutcome(z_hat, transcript, z_hat == x ^ y)
