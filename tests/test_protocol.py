from __future__ import annotations

import ast
from itertools import product
from pathlib import Path
from random import Random

import numpy as np
import pytest

from oracles import sampled_run
from securesum.analysis import affine_joint
from securesum.codes import build_code, code_from_matrix
from securesum.errors import ConfigurationError, ContractViolation
from securesum.gf2 import Gf2Batch, Gf2Matrix, Gf2Vector
from securesum.protocol import (
    PROTOCOL_IDS,
    PROTOCOLS,
    Message,
    PartyId,
    Transcript,
    _charlie_output,
    nominal_rates,
    run,
)
from securesum.source import DsbsParams

FIXTURE = code_from_matrix(Gf2Matrix.from_rows([[1, 1, 0], [0, 1, 1]]))

X = Gf2Vector.from_bits([1, 0, 1])
Y = Gf2Vector.from_bits([1, 1, 1])
K = Gf2Vector.from_bits([0, 1])

# The 1-2, 1-3 and 2-3 links.
LINKS = ((PartyId.ALICE, PartyId.BOB), (PartyId.ALICE, PartyId.CHARLIE), (PartyId.BOB, PartyId.CHARLIE))


def test_secure_km_worked_trace():
    out = run("secure-km", FIXTURE, X, Y, K)
    assert out.transcript.link_payload(PartyId.ALICE, PartyId.BOB) == K
    assert out.transcript.link_payload(PartyId.ALICE, PartyId.CHARLIE) == Gf2Vector.from_bits([1, 0])
    assert out.transcript.link_payload(PartyId.BOB, PartyId.CHARLIE) == Gf2Vector.from_bits([0, 1])
    assert out.z_hat == Gf2Vector.from_bits([0, 1, 0]) == X ^ Y
    assert out.correct
    assert [out.transcript.link_payload(a, b).n for a, b in LINKS] == [2, 2, 2]


def test_plain_km_worked_trace():
    out = run("plain-km", FIXTURE, X, Y)
    assert out.z_hat == Gf2Vector.from_bits([0, 1, 0])
    assert out.correct
    assert out.transcript.link_payload(PartyId.ALICE, PartyId.BOB).n == 0
    assert [m.round for m in out.transcript.messages] == [1, 1]
    assert out.transcript.link_payload(PartyId.ALICE, PartyId.CHARLIE) == Gf2Vector.from_bits([1, 1])
    assert out.transcript.link_payload(PartyId.BOB, PartyId.CHARLIE) == Gf2Vector.from_bits([0, 0])


def test_otp_worked_trace():
    out = run("zero-error-otp", None,
              Gf2Vector.from_bits([1, 0]), Gf2Vector.from_bits([0, 0]), Gf2Vector.from_bits([1, 1]))
    assert out.transcript.link_payload(PartyId.ALICE, PartyId.CHARLIE) == Gf2Vector.from_bits([0, 1])
    assert out.transcript.link_payload(PartyId.BOB, PartyId.CHARLIE) == Gf2Vector.from_bits([1, 1])
    assert out.z_hat == Gf2Vector.from_bits([1, 0])
    assert out.correct


def test_otp_exhaustive_correctness():
    for n in (1, 2, 3):
        for xb, yb, kb in product(range(1 << n), repeat=3):
            out = run("zero-error-otp", None, Gf2Vector(xb, n), Gf2Vector(yb, n), Gf2Vector(kb, n))
            assert out.correct
            assert out.z_hat == Gf2Vector(xb ^ yb, n)


def test_otp_zero_pad_still_correct():
    x, y = Gf2Vector.from_string("1011"), Gf2Vector.from_string("0110")
    out = run("zero-error-otp", None, x, y, Gf2Vector.zeros(4))
    assert out.transcript.link_payload(PartyId.ALICE, PartyId.CHARLIE) == x
    assert out.correct


def test_mask_cancels_exhaustively():
    code = build_code(4, 2, seed=11)
    for xb, yb in product(range(16), repeat=2):
        x, y = Gf2Vector(xb, 4), Gf2Vector(yb, 4)
        plain = run("plain-km", code, x, y).z_hat
        outs = {run("secure-km", code, x, y, Gf2Vector(kb, 2)).z_hat for kb in range(4)}
        assert outs == {plain}


def test_mask_cancels_on_sampled_pairs():
    code = build_code(10, 6, seed=3)
    params = DsbsParams(p=0.3, n=10)
    rng = Random(42)
    for _ in range(200):
        x, y, out = sampled_run("plain-km", params, code, rng)
        plain = out.z_hat
        for kb in range(64):
            assert run("secure-km", code, x, y, Gf2Vector(kb, 6)).z_hat == plain


def test_equal_inputs_decode_to_zero():
    code = build_code(5, 3, seed=7)
    x = Gf2Vector.from_string("11010")
    for out in (run("plain-km", code, x, x), run("secure-km", code, x, x, Gf2Vector(0b101, 3))):
        assert out.z_hat == Gf2Vector.zeros(5)
        assert out.correct


def test_output_uses_charlies_links_only():
    # a transcript holding only the 1-3 and 2-3 messages must reproduce z_hat
    code = build_code(6, 3, seed=1)
    params = DsbsParams(p=0.2, n=6)
    rng = Random(8)
    for protocol in PROTOCOL_IDS:
        arg = None if protocol == "zero-error-otp" else code
        _, _, out = sampled_run(protocol, params, arg, rng)
        rebuilt = Transcript(tuple(m for m in out.transcript.messages
                                   if PartyId.CHARLIE in (m.sender, m.receiver)))
        assert [(m.sender, m.receiver) for m in rebuilt.messages] == \
            [(PartyId.ALICE, PartyId.CHARLIE), (PartyId.BOB, PartyId.CHARLIE)]
        assert _charlie_output(rebuilt, arg) == out.z_hat


def test_replay_is_deterministic():
    code = build_code(7, 4, seed=5)
    params = DsbsParams(p=0.15, n=7)
    for protocol in PROTOCOL_IDS:
        arg = None if protocol == "zero-error-otp" else code
        _, _, a = sampled_run(protocol, params, arg, Random(99))
        _, _, b = sampled_run(protocol, params, arg, Random(99))
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
            _, _, out = sampled_run(protocol, params, arg, rng)
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


def test_links_that_carry_messages_are_the_nonempty_link_variables():
    # The "transcript" variable of both exact engines expands to all three
    # links; a link that carries no message must be an empty variable there.
    code = build_code(6, 3, seed=2)
    links = {(1, 2): "m12", (1, 3): "m13", (2, 3): "m23"}
    for protocol, spec in PROTOCOLS.items():
        coded = code if spec.coded else None
        _, _, out = sampled_run(protocol, DsbsParams(p=0.2, n=6), coded, Random(5))
        carried = {links[(int(m.sender), int(m.receiver))] for m in out.transcript.messages}
        widths = affine_joint(protocol, coded, DsbsParams(p=0.2, n=6)).widths
        assert carried == {name for name in links.values() if widths[name]}, protocol


def test_registry_is_the_only_protocol_dispatch():
    # Every protocol ID spelt out in the program sits in the registry, so no
    # branch elsewhere can compare against one, and no name the program
    # defines or imports is one spelt in snake case, so no per-scheme
    # function, class or constant stands beside the registry's flags.
    src = Path(__file__).resolve().parents[1] / "src" / "securesum"
    snake = [protocol.replace("-", "_") for protocol in PROTOCOL_IDS]
    registry = None
    found, named = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if path.name == "protocol.py" and isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "PROTOCOLS" for t in node.targets):
                registry = (node.lineno, node.end_lineno)
            if isinstance(node, ast.Constant) and node.value in PROTOCOL_IDS:
                found.append((path.name, node.lineno, node.value))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                named.append((path.name, node.lineno, node.name))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                named += [(path.name, node.lineno, name) for alias in node.names
                          for name in (alias.name, alias.asname) if name]
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            named += [(path.name, node.lineno, t.id) for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
    assert registry is not None
    outside = [f for f in found if f[0] != "protocol.py" or not registry[0] <= f[1] <= registry[1]]
    assert outside == []
    assert sorted(value for *_, value in found) == sorted(PROTOCOL_IDS)
    # A module-level assignment, a function, a class and an import are all read.
    assert {"PROTOCOL_IDS", "protocol_spec", "ProtocolSpec", "check_instance"} <= {name for *_, name in named}
    assert [f for f in named if any(id_ in f[2].lower() for id_ in snake)] == []


def _assert_batch_matches_scalar_runs(protocol, code, n, klen, atoms):
    """One batched run on the (x, y, k) atoms equals a scalar run on each, atom by atom."""
    x, y, k = (Gf2Batch(words, width) for words, width in zip(zip(*atoms), (n, n, klen)))
    batch = run(protocol, code, x, y, k)
    scalar = [run(protocol, code, Gf2Vector(a, n), Gf2Vector(b, n), Gf2Vector(c, klen)) for a, b, c in atoms]
    assert batch.z_hat.n == n and batch.z_hat.bits.tolist() == [out.z_hat.bits for out in scalar]
    assert batch.correct.dtype == bool and batch.correct.tolist() == [out.correct for out in scalar]
    for a, b in LINKS:
        payload = batch.transcript.link_payload(a, b)
        assert payload.n == scalar[0].transcript.link_payload(a, b).n
        words = np.broadcast_to(np.asarray(payload.bits), len(atoms)).tolist()
        assert words == [out.transcript.link_payload(a, b).bits for out in scalar], (protocol, n, a, b)
    return batch


def test_batched_run_matches_scalar_runs_at_every_small_atom():
    for n in range(1, 5):
        for m in range(n + 1):
            code = build_code(n, m, seed=31 * n + m)
            for protocol, klen in (("secure-km", m), ("plain-km", 0)):
                _assert_batch_matches_scalar_runs(
                    protocol, code, n, klen, list(product(range(1 << n), range(1 << n), range(1 << klen))))
        _assert_batch_matches_scalar_runs("zero-error-otp", None, n, n,
                                          list(product(range(1 << n), repeat=3)))


def test_batched_run_matches_scalar_runs_at_the_word_edges():
    # n = 63 is the widest int64 word; the uncoded pad at n = 70 runs on Python ints.
    rng = Random(63)
    code = build_code(63, 24, seed=1)
    for protocol, klen in (("secure-km", 24), ("plain-km", 0)):
        atoms = [(rng.getrandbits(63), rng.getrandbits(63), rng.getrandbits(klen)) for _ in range(64)]
        batch = _assert_batch_matches_scalar_runs(protocol, code, 63, klen, atoms)
        assert batch.z_hat.bits.dtype == np.int64
    atoms = [(rng.getrandbits(70), rng.getrandbits(70), rng.getrandbits(70)) for _ in range(64)]
    batch = _assert_batch_matches_scalar_runs("zero-error-otp", None, 70, 70, atoms)
    assert batch.z_hat.bits.dtype == object and batch.correct.all()


def test_run_dimension_validation():
    with pytest.raises(ContractViolation):
        run("secure-km", FIXTURE, Gf2Vector.zeros(4), Y, K)
    with pytest.raises(ContractViolation):
        run("secure-km", FIXTURE, X, Y, Gf2Vector.zeros(3))
    with pytest.raises(ContractViolation):
        run("plain-km", FIXTURE, X, Gf2Vector.zeros(2))
    with pytest.raises(ContractViolation):
        run("zero-error-otp", None, X, Y, Gf2Vector.zeros(2))
    with pytest.raises(ContractViolation):
        run("zero-error-otp", None, X, Gf2Vector.zeros(2), Gf2Vector.zeros(3))
    # A masked scheme needs a key as long as its messages: m when coded, n for the pad.
    for protocol, code, klen in (("secure-km", FIXTURE, 2), ("zero-error-otp", None, 3)):
        with pytest.raises(ContractViolation, match="key"):
            run(protocol, code, X, Y)
        for wrong in (0, klen - 1, klen + 1):
            with pytest.raises(ContractViolation, match="key"):
                run(protocol, code, X, Y, Gf2Vector.zeros(wrong))
    # An unmasked scheme takes no key, or an empty one.
    for key in (K, Gf2Vector.zeros(2), Gf2Vector.zeros(1)):
        with pytest.raises(ContractViolation, match="key"):
            run("plain-km", FIXTURE, X, Y, key)
    assert run("plain-km", FIXTURE, X, Y, Gf2Vector.zeros(0)) == run("plain-km", FIXTURE, X, Y)
    with pytest.raises(ConfigurationError):
        run("plain-km", None, X, Y)
    with pytest.raises(ConfigurationError):
        run("bogus", FIXTURE, X, Y, K)


def test_a_link_carries_at_most_one_message():
    # Every scheme sends at most one message per link, so a second message on
    # the 1-3 link, even in the other direction, is refused.
    a, b = Gf2Vector.from_string("10"), Gf2Vector.from_string("011")
    messages = (Message(1, PartyId.ALICE, PartyId.CHARLIE, a), Message(1, PartyId.BOB, PartyId.CHARLIE, b))
    with pytest.raises(ContractViolation, match="ALICE-CHARLIE link"):
        Transcript(messages + (Message(2, PartyId.CHARLIE, PartyId.ALICE, b),))
    transcript = Transcript(messages)
    assert transcript.link_payload(PartyId.ALICE, PartyId.CHARLIE) == a
    assert transcript.link_payload(PartyId.BOB, PartyId.CHARLIE) == b
    assert transcript.link_payload(PartyId.ALICE, PartyId.BOB) == Gf2Vector.zeros(0)
    assert [transcript.link_payload(a, b).n for a, b in LINKS] == [0, 2, 3]
    for u, v in product(PartyId, repeat=2):
        assert transcript.link_payload(u, v) == transcript.link_payload(v, u)


def test_message_validation():
    with pytest.raises(ContractViolation):
        Message(1, PartyId.ALICE, PartyId.ALICE, Gf2Vector.zeros(2))
    message = Message(1, PartyId.ALICE, PartyId.BOB, Gf2Vector.zeros(2))
    with pytest.raises(ContractViolation):
        message._replace(receiver=PartyId.ALICE)
    # The records of a run are read-only.
    out = run("secure-km", FIXTURE, X, Y, K)
    for record, name in ((X, "bits"), (message, "sender"), (out.transcript, "messages"), (out, "correct")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))

