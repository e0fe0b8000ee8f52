"""Three-party XOR computation protocols with fully recorded transcripts.

Party 1 (Alice) holds x, party 2 (Bob) holds y, party 3 (Charlie) must
output x xor y. Each run returns the decoded output together with a
transcript of every message in schedule order; message payloads are always
computed from the sending party's own inputs, its private randomness, and
the messages it has already received, so a transcript can be replayed.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from random import Random

from .codes import LinearCode
from .errors import ConfigurationError, ContractViolation
from .gf2 import Gf2Vector, random_vector
from .source import DsbsParams, sample_pair

__all__ = [
    "PartyId",
    "Message",
    "Transcript",
    "RunOutcome",
    "PROTOCOL_IDS",
    "run_secure_km",
    "run_plain_km",
    "run_zero_error_otp",
    "run_with_sampling",
    "output_from_transcript",
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

    @property
    def schedule(self) -> tuple[str, ...]:
        """The links that carry messages, in schedule order."""
        return ("m12", "m13", "m23") if self.masked else ("m13", "m23")

    def lengths(self, n: int, m: int | None) -> tuple[int, int]:
        """(message length, key length) at block length n and syndrome length m."""
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
    if spec.coded and code is None:
        raise ConfigurationError(f"{protocol_id} needs a code")
    if code is not None and code.n != n:
        raise ContractViolation(f"code length {code.n} != source length {n}")
    return (spec, *spec.lengths(n, code.m if spec.coded else None))


class PartyId(IntEnum):
    ALICE = 1
    BOB = 2
    CHARLIE = 3


@dataclass(frozen=True, slots=True)
class Message:
    round: int
    sender: PartyId
    receiver: PartyId
    payload: Gf2Vector

    def __post_init__(self):
        if self.sender == self.receiver:
            raise ContractViolation("a party cannot message itself")


_NO_PAYLOAD = Gf2Vector.zeros(0)


@dataclass(frozen=True)
class Transcript:
    messages: tuple[Message, ...]

    def link_payload(self, a: PartyId, b: PartyId) -> Gf2Vector:
        """Payload bits of one link concatenated in schedule order."""
        return self._payloads.get(frozenset((a, b)), _NO_PAYLOAD)

    @cached_property
    def _payloads(self) -> dict[frozenset[PartyId], Gf2Vector]:
        out: dict[frozenset[PartyId], Gf2Vector] = {}
        for m in self.messages:
            link = frozenset((m.sender, m.receiver))
            out[link] = out.get(link, _NO_PAYLOAD).concat(m.payload)
        return out

    @property
    def l12(self) -> int:
        return self.link_payload(PartyId.ALICE, PartyId.BOB).n

    @property
    def l13(self) -> int:
        return self.link_payload(PartyId.ALICE, PartyId.CHARLIE).n

    @property
    def l23(self) -> int:
        return self.link_payload(PartyId.BOB, PartyId.CHARLIE).n


@dataclass(frozen=True)
class RunOutcome:
    z_hat: Gf2Vector
    transcript: Transcript
    correct: bool


def nominal_rates(protocol_id: str, n: int, m: int | None) -> tuple[float, float, float, float]:
    """(r13, r23, r12, rho) fixed by the schedule and randomness accounting."""
    spec = protocol_spec(protocol_id)
    if spec.coded and m is None:
        raise ConfigurationError(f"{protocol_id} needs a code")
    mlen, klen = spec.lengths(n, m)
    return (mlen / n, mlen / n, klen / n, klen / n)


def output_from_transcript(protocol_id: str, transcript: Transcript, code: LinearCode | None = None) -> Gf2Vector:
    """Charlie's output computed from the messages on his two links alone."""
    spec = protocol_spec(protocol_id)
    if spec.coded and code is None:
        raise ConfigurationError(f"{protocol_id} needs a code to decode")
    return _charlie_output(transcript, code if spec.coded else None)


def _charlie_output(transcript: Transcript, code: LinearCode | None) -> Gf2Vector:
    """The xor of Charlie's two link payloads, decoded when there is a code."""
    m13 = transcript.link_payload(PartyId.ALICE, PartyId.CHARLIE)
    m23 = transcript.link_payload(PartyId.BOB, PartyId.CHARLIE)
    return m13 ^ m23 if code is None else code.decode(m13 ^ m23)


def run_secure_km(code: LinearCode, x: Gf2Vector, y: Gf2Vector, k: Gf2Vector) -> RunOutcome:
    """Masked syndrome scheme: both syndromes travel one-time-padded with k."""
    if x.n != code.n or y.n != code.n:
        raise ContractViolation(f"inputs must have length {code.n}, got {x.n} and {y.n}")
    if k.n != code.m:
        raise ContractViolation(f"mask must have length {code.m}, got {k.n}")
    m12 = Message(1, PartyId.ALICE, PartyId.BOB, k)
    m13 = Message(1, PartyId.ALICE, PartyId.CHARLIE, k ^ code.syndrome(x))
    # Bob masks with the bits he received, not with Alice's local variable.
    m23 = Message(2, PartyId.BOB, PartyId.CHARLIE, m12.payload ^ code.syndrome(y))
    transcript = Transcript((m12, m13, m23))
    z_hat = _charlie_output(transcript, code)
    return RunOutcome(z_hat, transcript, z_hat == x ^ y)


def run_plain_km(code: LinearCode, x: Gf2Vector, y: Gf2Vector) -> RunOutcome:
    """Unmasked syndrome scheme; the 1-2 link stays silent."""
    if x.n != code.n or y.n != code.n:
        raise ContractViolation(f"inputs must have length {code.n}, got {x.n} and {y.n}")
    m13 = Message(1, PartyId.ALICE, PartyId.CHARLIE, code.syndrome(x))
    m23 = Message(1, PartyId.BOB, PartyId.CHARLIE, code.syndrome(y))
    transcript = Transcript((m13, m23))
    z_hat = _charlie_output(transcript, code)
    return RunOutcome(z_hat, transcript, z_hat == x ^ y)


def run_zero_error_otp(x: Gf2Vector, y: Gf2Vector, k: Gf2Vector) -> RunOutcome:
    """Uncoded one-time-pad scheme; exact for every input pair."""
    if y.n != x.n or k.n != x.n:
        raise ContractViolation(f"inputs and pad must share one length, got {x.n}, {y.n}, {k.n}")
    m12 = Message(1, PartyId.ALICE, PartyId.BOB, k)
    m13 = Message(1, PartyId.ALICE, PartyId.CHARLIE, k ^ x)
    m23 = Message(2, PartyId.BOB, PartyId.CHARLIE, m12.payload ^ y)
    transcript = Transcript((m12, m13, m23))
    z_hat = _charlie_output(transcript, None)
    return RunOutcome(z_hat, transcript, z_hat == x ^ y)


def run_with_sampling(
    protocol_id: str,
    params: DsbsParams,
    code: LinearCode | None = None,
    rng: Random | None = None,
) -> RunOutcome:
    """Sample (x, y) and any private randomness, then run the named protocol."""
    spec, _, klen = check_instance(protocol_id, code, params.n)
    if rng is None:
        raise ContractViolation("an explicit rng is required")
    x, y = sample_pair(params, rng)
    k = random_vector(klen, rng) if spec.masked else None
    if not spec.coded:
        return run_zero_error_otp(x, y, k)
    return run_secure_km(code, x, y, k) if spec.masked else run_plain_km(code, x, y)

