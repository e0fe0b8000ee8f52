from __future__ import annotations

import ast
from itertools import product
from pathlib import Path
from random import Random

import pytest

from securesum.codes import build_code, code_from_matrix
from securesum.errors import ConfigurationError, ContractViolation
from securesum.gf2 import Gf2Matrix, Gf2Vector
from securesum.protocol import (
    PROTOCOL_IDS,
    PROTOCOLS,
    Message,
    PartyId,
    Transcript,
    nominal_rates,
    output_from_transcript,
    run_plain_km,
    run_secure_km,
    run_with_sampling,
    run_zero_error_otp,
)
from securesum.source import DsbsParams

FIXTURE = code_from_matrix(Gf2Matrix.from_rows([[1, 1, 0], [0, 1, 1]]))

X = Gf2Vector.from_bits([1, 0, 1])
Y = Gf2Vector.from_bits([1, 1, 1])
K = Gf2Vector.from_bits([0, 1])


def test_secure_km_worked_trace():
    out = run_secure_km(FIXTURE, X, Y, K)
    assert out.transcript.link_payload(PartyId.ALICE, PartyId.BOB) == K
    assert out.transcript.link_payload(PartyId.ALICE, PartyId.CHARLIE) == Gf2Vector.from_bits([1, 0])
    assert out.transcript.link_payload(PartyId.BOB, PartyId.CHARLIE) == Gf2Vector.from_bits([0, 1])
    assert out.z_hat == Gf2Vector.from_bits([0, 1, 0]) == X ^ Y
    assert out.correct
    assert (out.transcript.l12, out.transcript.l13, out.transcript.l23) == (2, 2, 2)


def test_plain_km_worked_trace():
    out = run_plain_km(FIXTURE, X, Y)
    assert out.z_hat == Gf2Vector.from_bits([0, 1, 0])
    assert out.correct
    assert out.transcript.l12 == 0
    assert [m.round for m in out.transcript.messages] == [1, 1]
    assert out.transcript.link_payload(PartyId.ALICE, PartyId.CHARLIE) == Gf2Vector.from_bits([1, 1])
    assert out.transcript.link_payload(PartyId.BOB, PartyId.CHARLIE) == Gf2Vector.from_bits([0, 0])


def test_otp_worked_trace():
    out = run_zero_error_otp(
        Gf2Vector.from_bits([1, 0]), Gf2Vector.from_bits([0, 0]), Gf2Vector.from_bits([1, 1])
    )
    assert out.transcript.link_payload(PartyId.ALICE, PartyId.CHARLIE) == Gf2Vector.from_bits([0, 1])
    assert out.transcript.link_payload(PartyId.BOB, PartyId.CHARLIE) == Gf2Vector.from_bits([1, 1])
    assert out.z_hat == Gf2Vector.from_bits([1, 0])
    assert out.correct


def test_otp_exhaustive_correctness():
    for n in (1, 2, 3):
        for xb, yb, kb in product(range(1 << n), repeat=3):
            out = run_zero_error_otp(Gf2Vector(xb, n), Gf2Vector(yb, n), Gf2Vector(kb, n))
            assert out.correct
            assert out.z_hat == Gf2Vector(xb ^ yb, n)


def test_otp_zero_pad_still_correct():
    x, y = Gf2Vector.from_string("1011"), Gf2Vector.from_string("0110")
    out = run_zero_error_otp(x, y, Gf2Vector.zeros(4))
    assert out.transcript.link_payload(PartyId.ALICE, PartyId.CHARLIE) == x
    assert out.correct


def test_mask_cancels_exhaustively():
    code = build_code(4, 2, seed=11)
    for xb, yb in product(range(16), repeat=2):
        x, y = Gf2Vector(xb, 4), Gf2Vector(yb, 4)
        plain = run_plain_km(code, x, y).z_hat
        outs = {run_secure_km(code, x, y, Gf2Vector(kb, 2)).z_hat for kb in range(4)}
        assert outs == {plain}


def test_mask_cancels_on_sampled_pairs():
    code = build_code(10, 6, seed=3)
    params = DsbsParams(p=0.3, n=10)
    rng = Random(42)
    from securesum.source import sample_pair

    for _ in range(200):
        x, y = sample_pair(params, rng)
        plain = run_plain_km(code, x, y).z_hat
        for kb in range(64):
            assert run_secure_km(code, x, y, Gf2Vector(kb, 6)).z_hat == plain


def test_equal_inputs_decode_to_zero():
    code = build_code(5, 3, seed=7)
    x = Gf2Vector.from_string("11010")
    for out in (run_plain_km(code, x, x), run_secure_km(code, x, x, Gf2Vector(0b101, 3))):
        assert out.z_hat == Gf2Vector.zeros(5)
        assert out.correct


def test_output_uses_charlies_links_only():
    # a transcript holding only the 1-3 and 2-3 messages must reproduce z_hat
    code = build_code(6, 3, seed=1)
    params = DsbsParams(p=0.2, n=6)
    rng = Random(8)
    for protocol in PROTOCOL_IDS:
        out = run_with_sampling(protocol, params, code=None if protocol == "zero-error-otp" else code, rng=rng)
        rebuilt = Transcript(tuple(m for m in out.transcript.messages
                                   if PartyId.CHARLIE in (m.sender, m.receiver)))
        assert [(m.sender, m.receiver) for m in rebuilt.messages] == \
            [(PartyId.ALICE, PartyId.CHARLIE), (PartyId.BOB, PartyId.CHARLIE)]
        arg = None if protocol == "zero-error-otp" else code
        assert output_from_transcript(protocol, rebuilt, arg) == out.z_hat


def test_replay_is_deterministic():
    code = build_code(7, 4, seed=5)
    params = DsbsParams(p=0.15, n=7)
    for protocol in PROTOCOL_IDS:
        arg = None if protocol == "zero-error-otp" else code
        a = run_with_sampling(protocol, params, code=arg, rng=Random(99))
        b = run_with_sampling(protocol, params, code=arg, rng=Random(99))
        assert a.transcript.messages == b.transcript.messages
        assert a.z_hat == b.z_hat and a.correct == b.correct


def test_framing_is_input_independent():
    # message count, schedule, and per-message lengths never depend on data
    code = build_code(6, 2, seed=13)
    params = DsbsParams(p=0.4, n=6)
    rng = Random(4)
    shapes = {
        "secure-km": [(1, 1, 2, 2), (1, 1, 3, 2), (2, 2, 3, 2)],
        "plain-km": [(1, 1, 3, 2), (1, 2, 3, 2)],
        "zero-error-otp": [(1, 1, 2, 6), (1, 1, 3, 6), (2, 2, 3, 6)],
    }
    for protocol in PROTOCOL_IDS:
        arg = None if protocol == "zero-error-otp" else code
        for _ in range(25):
            out = run_with_sampling(protocol, params, code=arg, rng=rng)
            got = [
                (m.round, int(m.sender), int(m.receiver), m.payload.n)
                for m in out.transcript.messages
            ]
            assert got == shapes[protocol]


def test_nominal_rates():
    assert nominal_rates("secure-km", 3, 2) == (2 / 3, 2 / 3, 2 / 3, 2 / 3)
    assert nominal_rates("plain-km", 3, 2) == (2 / 3, 2 / 3, 0.0, 0.0)
    assert nominal_rates("zero-error-otp", 3, None) == (1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        nominal_rates("secure-km", 3, None)
    with pytest.raises(ConfigurationError):
        nominal_rates("bogus", 3, 2)


def test_schedule_is_the_links_that_carry_messages():
    # The "transcript" variable of both exact engines expands to the schedule.
    code = build_code(6, 3, seed=2)
    links = {(1, 2): "m12", (1, 3): "m13", (2, 3): "m23"}
    for protocol, spec in PROTOCOLS.items():
        out = run_with_sampling(protocol, DsbsParams(p=0.2, n=6),
                                code=code if spec.coded else None, rng=Random(5))
        carried = [links[(int(m.sender), int(m.receiver))] for m in out.transcript.messages]
        assert tuple(dict.fromkeys(carried)) == spec.schedule, protocol


def test_registry_is_the_only_protocol_dispatch():
    # Every protocol ID spelt out in the program sits in the registry, so no
    # branch elsewhere can compare against one.
    src = Path(__file__).resolve().parents[1] / "src" / "securesum"
    registry = None
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if path.name == "protocol.py" and isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "PROTOCOLS" for t in node.targets):
                registry = (node.lineno, node.end_lineno)
            if isinstance(node, ast.Constant) and node.value in PROTOCOL_IDS:
                found.append((path.name, node.lineno, node.value))
    assert registry is not None
    outside = [f for f in found if f[0] != "protocol.py" or not registry[0] <= f[1] <= registry[1]]
    assert outside == []
    assert sorted(value for *_, value in found) == sorted(PROTOCOL_IDS)


def test_run_with_sampling_validation():
    params = DsbsParams(p=0.1, n=4)
    code = build_code(4, 2, seed=0)
    with pytest.raises(ConfigurationError):
        run_with_sampling("bogus", params, code=code, rng=Random(0))
    with pytest.raises(ConfigurationError):
        run_with_sampling("secure-km", params, code=None, rng=Random(0))
    with pytest.raises(ContractViolation):
        run_with_sampling("plain-km", params, code=code, rng=None)
    with pytest.raises(ContractViolation):
        run_with_sampling("secure-km", DsbsParams(p=0.1, n=5), code=code, rng=Random(0))
    # An uncoded scheme ignores a code, but not one of the wrong length.
    with pytest.raises(ContractViolation):
        run_with_sampling("zero-error-otp", DsbsParams(p=0.1, n=5), code=code, rng=Random(0))
    assert run_with_sampling("zero-error-otp", params, code=code, rng=Random(0)).correct


def test_run_dimension_validation():
    with pytest.raises(ContractViolation):
        run_secure_km(FIXTURE, Gf2Vector.zeros(4), Y, K)
    with pytest.raises(ContractViolation):
        run_secure_km(FIXTURE, X, Y, Gf2Vector.zeros(3))
    with pytest.raises(ContractViolation):
        run_plain_km(FIXTURE, X, Gf2Vector.zeros(2))
    with pytest.raises(ContractViolation):
        run_zero_error_otp(X, Y, Gf2Vector.zeros(2))


def test_message_validation():
    with pytest.raises(ContractViolation):
        Message(1, PartyId.ALICE, PartyId.ALICE, Gf2Vector.zeros(2))


def test_output_from_transcript_needs_code():
    out = run_plain_km(FIXTURE, X, Y)
    with pytest.raises(ConfigurationError):
        output_from_transcript("plain-km", out.transcript, None)

