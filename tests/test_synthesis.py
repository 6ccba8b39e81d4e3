"""Pulse programs: scheduling, serialization, and the transform pipeline."""

import json

import numpy as np
import pytest

from optpulse.circuits import circuit_unitary, parse_circuit
from optpulse.dynamics import evolve_continuous, piecewise_propagator
from optpulse.errors import (
    CircuitError,
    LibraryError,
    OptimizationError,
    TransformError,
)
from optpulse.model import SystemModel, parse_model
from optpulse.optimize import infidelity
from optpulse.synthesis import (
    PulseInstruction,
    PulseLibrary,
    PulseProgram,
    compile_circuit,
    discretize_envelope,
    emit_program,
    library_lower,
    parse_program,
    transform,
)


def x_model():
    return SystemModel(n_qubits=1, dt=0.2, control=(("dx", "X0"),))


# ------------------------------------------------------------ program type


def test_instruction_validation():
    with pytest.raises(OptimizationError):
        PulseInstruction("d0", -1, (0.1,))
    with pytest.raises(OptimizationError):
        PulseInstruction("d0", 0, ())
    instr = PulseInstruction("d0", 2, (0.1, 0.2))
    assert instr.end == 4


def test_program_rejects_overlap_on_same_channel():
    a = PulseInstruction("d0", 0, (1.0,) * 10)
    b = PulseInstruction("d0", 9, (1.0,) * 5)
    with pytest.raises(OptimizationError):
        PulseProgram(dt=0.1, instructions=(a, b))


def test_program_allows_abutting_windows_and_other_channels():
    prog = PulseProgram(
        dt=0.1,
        instructions=(
            PulseInstruction("d0", 0, (1.0,) * 10),
            PulseInstruction("d0", 10, (1.0,) * 5),
            PulseInstruction("d1", 3, (1.0,) * 20),
        ),
    )
    assert prog.total_duration == 23
    assert prog.channels == ("d0", "d1")


def test_to_signal_pads_idle_stretches_with_zeros():
    prog = PulseProgram(
        dt=0.5,
        instructions=(
            PulseInstruction("d0", 2, (1.0, 2.0)),
            PulseInstruction("d1", 0, (5.0,)),
        ),
    )
    sig = prog.to_signal()
    assert np.allclose(sig.samples["d0"], [0, 0, 1, 2])
    assert np.allclose(sig.samples["d1"], [5, 0, 0, 0])


# ------------------------------------------------------------ discretizer


def test_discretize_envelope_takes_left_endpoints():
    vals = discretize_envelope(lambda t: t, 1.0, 0.25)
    assert np.allclose(vals, [0.0, 0.25, 0.5, 0.75])
    assert vals.size == 4


def test_discretize_envelope_errors():
    with pytest.raises(OptimizationError):
        discretize_envelope(lambda t: 1.0, 0.1, 0.25)  # shorter than dt
    with pytest.raises(OptimizationError):
        discretize_envelope(lambda t: float("nan"), 1.0, 0.25)


# ----------------------------------------------------------- serialization


def test_emit_golden_document():
    prog = PulseProgram(
        dt=0.5,
        instructions=(PulseInstruction("d0", 0, (0.5, -0.25 + 1j)),),
        metadata={"method": "GRAPE", "infidelity": 1e-4},
    )
    doc = json.loads(emit_program(prog))
    assert set(doc) == {"dt", "instructions", "metadata"}
    assert doc["instructions"][0]["samples"] == [[0.5, 0.0], [-0.25, 1.0]]
    assert doc["metadata"] == {"method": "GRAPE", "infidelity": 1e-4}


def test_emit_orders_instructions_canonically():
    a = PulseInstruction("b", 0, (1.0,))
    b = PulseInstruction("a", 0, (2.0,))
    c = PulseInstruction("a", 5, (3.0,))
    one = emit_program(PulseProgram(dt=0.1, instructions=(c, a, b)))
    two = emit_program(PulseProgram(dt=0.1, instructions=(b, c, a)))
    assert one == two
    order = [(i["t0"], i["channel"]) for i in json.loads(one)["instructions"]]
    assert order == [(0, "a"), (0, "b"), (5, "a")]


def test_round_trip_is_byte_identical_on_random_programs():
    rng = np.random.default_rng(6)
    for _ in range(25):
        instructions = []
        cursor = {ch: 0 for ch in "abc"}
        for _ in range(rng.integers(1, 6)):
            ch = rng.choice(list("abc"))
            start = cursor[ch] + int(rng.integers(0, 4))
            n = int(rng.integers(1, 6))
            samples = tuple(
                complex(re, im)
                for re, im in rng.normal(size=(n, 2)).round(6)
            )
            instructions.append(PulseInstruction(ch, start, samples))
            cursor[ch] = start + n
        prog = PulseProgram(dt=float(rng.uniform(0.05, 0.5)), instructions=tuple(instructions))
        doc = emit_program(prog)
        assert emit_program(parse_program(doc)) == doc


def test_parse_rejects_malformed_documents():
    with pytest.raises(OptimizationError):
        parse_program("{not json")
    with pytest.raises(OptimizationError):
        parse_program({"dt": 0.1})
    with pytest.raises(OptimizationError):
        parse_program({"dt": 0.1, "instructions": [], "extras": 1})
    with pytest.raises(OptimizationError):
        parse_program(
            {"dt": 0.1, "instructions": [{"channel": "a", "t0": 0, "amps": []}]}
        )


@pytest.mark.parametrize(
    "doc",
    [
        {"dt": 0.1, "instructions": [{"t0": 0, "samples": [[0.1, 0.0]]}]},
        {"dt": 0.1, "instructions": [{"channel": "a", "t0": 0, "samples": [0.1]}]},
        {"dt": 0.1, "instructions": [{"channel": "a", "t0": 0, "samples": 0.1}]},
        {"dt": 0.1, "instructions": 5},
        {"dt": "x", "instructions": []},
    ],
    ids=["no-channel", "scalar-sample", "scalar-samples", "non-list", "dt-text"],
)
def test_parse_raises_typed_error_on_malformed_fields(doc):
    with pytest.raises(OptimizationError):
        parse_program(doc)


# ---------------------------------------------------------------- library


def frag(channel, n, t0=0):
    return PulseProgram(
        dt=0.2, instructions=(PulseInstruction(channel, t0, (0.25,) * n),)
    )


def test_library_serial_on_shared_channel():
    lib = PulseLibrary(dt=0.2)
    lib.add("X", (0,), frag("d0", 10))
    prog = library_lower(parse_circuit("X(q[0]); X(q[0]);"), lib)
    t0s = sorted(i.t0 for i in prog.instructions)
    assert t0s == [0, 10]


def test_library_parallel_on_disjoint_channels():
    lib = PulseLibrary(dt=0.2)
    lib.add("X", (0,), frag("d0", 10))
    lib.add("X", (1,), frag("d1", 10))
    prog = library_lower(parse_circuit("X(q[0]); X(q[1]);"), lib)
    assert all(i.t0 == 0 for i in prog.instructions)


def test_library_gates_are_atomic():
    # CZ busies d0 and u01 for its whole 8-sample window even though its
    # d0 instruction ends earlier; the next X(q[0]) must wait for the end
    lib = PulseLibrary(dt=0.2)
    cz = PulseProgram(
        dt=0.2,
        instructions=(
            PulseInstruction("d0", 0, (0.1,) * 4),
            PulseInstruction("u01", 2, (0.3,) * 6),
        ),
    )
    lib.add("CZ", (0, 1), cz)
    lib.add("X", (0,), frag("d0", 10))
    lib.add("X", (1,), frag("d1", 10))
    prog = library_lower(parse_circuit("CZ(q[0], q[1]); X(q[1]); X(q[0]);"), lib)
    placed = sorted((i.channel, i.t0) for i in prog.instructions)
    assert ("d0", 8) in placed  # waits for CZ end, not for d0 to go idle
    assert ("d1", 0) in placed  # disjoint, runs immediately
    assert ("u01", 2) in placed


def test_library_missing_entry_names_the_gate():
    lib = PulseLibrary(dt=0.2)
    with pytest.raises(LibraryError) as err:
        library_lower(parse_circuit("H(q[0]);"), lib)
    assert "H" in str(err.value)


def test_library_rejects_mismatched_dt_and_unknown_channels():
    lib = PulseLibrary(dt=0.2)
    with pytest.raises(LibraryError):
        lib.add("X", (0,), PulseProgram(dt=0.1, instructions=(PulseInstruction("d0", 0, (1.0,)),)))
    checked = PulseLibrary(dt=0.2, model=x_model())
    with pytest.raises(LibraryError):
        checked.add("X", (0,), frag("d9", 4))


# --------------------------------------------------------------- transform


def test_transform_produces_sound_program():
    model = x_model()
    circuit = parse_circuit("X(q[0]);")
    program = transform(circuit, model, "GRAPE", {"max-time": 10.0, "tol": 1e-6, "seed": 3})
    assert set(program.metadata) == {"method", "infidelity"}
    u = piecewise_propagator(model, program.to_signal())
    resim = infidelity(u, circuit_unitary(circuit))
    assert abs(resim - program.metadata["infidelity"]) <= 1e-12
    assert program.metadata["infidelity"] <= 1e-6


def test_transform_goat_resimulates_continuously():
    model = x_model()
    circuit = parse_circuit("X(q[0]);")
    program, result = compile_circuit(
        circuit, model, "GOAT", {"max-time": 10.0, "tol": 1e-7}
    )
    target = circuit_unitary(circuit)
    from optpulse.dynamics import ControlSignal

    sig = ControlSignal.from_envelopes(result.envelopes, duration=10.0, dt=model.dt)
    cont = infidelity(evolve_continuous(model, sig), target)
    assert abs(cont - result.final_infidelity) <= 1e-6
    # sampled emission differs only by discretization error
    pw = infidelity(piecewise_propagator(model, program.to_signal()), target)
    assert abs(pw - result.final_infidelity) <= 1e-5


def test_transform_non_convergence_carries_best_effort():
    # Hadamard needs a second axis; sigma-x alone cannot reach it
    with pytest.raises(TransformError) as err:
        transform(
            parse_circuit("H(q[0]);"),
            x_model(),
            "GRAPE",
            {"max-time": 10.0, "max-iters": 40},
        )
    exc = err.value
    assert exc.program is not None
    assert exc.infidelity > 5e-2
    assert exc.result.status in ("max-iters", "stalled")
    assert exc.program.metadata["infidelity"] == exc.infidelity


def test_transform_accept_threshold_is_adjustable():
    program = transform(
        parse_circuit("H(q[0]);"),
        x_model(),
        "GRAPE",
        {"max-time": 10.0, "max-iters": 40, "accept-threshold": 0.9},
    )
    assert program.metadata["infidelity"] <= 0.9


def test_transform_rejects_unbound_circuit():
    with pytest.raises(CircuitError):
        transform(parse_circuit("Rx(q[0], t);"), x_model(), "GRAPE", {"max-time": 10.0})


def test_transform_requires_max_time():
    with pytest.raises(OptimizationError):
        transform(parse_circuit("X(q[0]);"), x_model(), "GRAPE", {})


def test_transform_rejects_contradictory_sample_count():
    with pytest.raises(OptimizationError):
        transform(
            parse_circuit("X(q[0]);"),
            x_model(),
            "GRAPE",
            {"max-time": 10.0, "n-samples": 99},
        )


def test_transform_checks_qubit_count(fixtures):
    two_qubit_model = parse_model((fixtures / "model_2q_12ch.json").read_text())
    with pytest.raises(OptimizationError):
        transform(parse_circuit("X(q[0]);"), two_qubit_model, "GRAPE", {"max-time": 10.0})
