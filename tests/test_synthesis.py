"""Pulse programs: scheduling, serialization, and the transform pipeline."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optpulse.circuits import circuit_unitary, parse_circuit
from optpulse.dynamics import evolve_continuous, piecewise_propagator
from optpulse.errors import (
    CircuitError,
    LibraryError,
    OptimizationError,
    PulseError,
    TransformError,
)
from optpulse.model import SystemModel, parse_model
from optpulse.optimize import infidelity
from optpulse.synthesis import (
    PulseInstruction,
    PulseLibrary,
    PulseProgram,
    compile_circuit,
    emit_program,
    library_lower,
    parse_program,
    transform,
)


def x_model():
    return SystemModel(n_qubits=1, dt=0.2, control=(("dx", "X0"),))


# ------------------------------------------------------------ program type


def test_instruction_validation():
    with pytest.raises(PulseError):
        PulseInstruction("d0", -1, (0.1,))
    with pytest.raises(PulseError):
        PulseInstruction("d0", 0, ())
    instr = PulseInstruction("d0", 2, (0.1, 0.2))
    assert instr.end == 4


def test_program_rejects_overlap_on_same_channel():
    a = PulseInstruction("d0", 0, (1.0,) * 10)
    b = PulseInstruction("d0", 9, (1.0,) * 5)
    with pytest.raises(PulseError):
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


def _indent_encoder_document(program):
    """emit_program's bytes as the indenting json encoder writes them."""
    ordered = sorted(program.instructions, key=lambda i: (i.t0, i.channel))
    doc = {
        "dt": program.dt,
        "instructions": [
            {
                "channel": instr.channel,
                "t0": instr.t0,
                "samples": [[s.real, s.imag] for s in instr.samples],
            }
            for instr in ordered
        ],
        "metadata": dict(program.metadata),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-300, -1e300, 0.1]),
)
_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), _floats, st.text(max_size=12)
)
_metadata = st.dictionaries(
    st.one_of(st.sampled_from(["samples", "channel", "t0", "dt"]), st.text(max_size=8)),
    st.recursive(
        _json_leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(
                st.one_of(st.just("samples"), st.text(max_size=6)), inner, max_size=3
            ),
        ),
        max_leaves=8,
    ),
    max_size=4,
)
_channels = st.one_of(
    st.sampled_from(['"samples": null', "d0", "é\n", '{"t0": 1}']),
    st.text(min_size=1, max_size=10),
)


@st.composite
def _programs(draw):
    instructions = []
    for i, channel in enumerate(draw(st.lists(_channels, max_size=4, unique=True))):
        pairs = draw(st.lists(st.tuples(_floats, _floats), min_size=1, max_size=6))
        samples = tuple(complex(re, im) for re, im in pairs)
        instructions.append(PulseInstruction(channel, draw(st.integers(0, 50)), samples))
    dt = draw(st.one_of(st.floats(1e-6, 10.0), st.integers(1, 5)))
    return PulseProgram(dt=dt, instructions=instructions, metadata=draw(_metadata))


@settings(max_examples=200, deadline=None)
@given(_programs())
def test_emit_matches_the_indenting_json_encoder(program):
    assert emit_program(program) == _indent_encoder_document(program)


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
    with pytest.raises(PulseError) as err:
        parse_program("{not json")
    # a bad pulse file is no optimizer failure
    assert not isinstance(err.value, OptimizationError)
    with pytest.raises(PulseError):
        parse_program({"dt": 0.1})
    with pytest.raises(PulseError):
        parse_program({"dt": 0.1, "instructions": [], "extras": 1})
    with pytest.raises(PulseError):
        parse_program(
            {"dt": 0.1, "instructions": [{"channel": "a", "t0": 0, "amps": []}]}
        )


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"dt": 0.1, "instructions": [{"t0": 0, "samples": [[0.1, 0.0]]}]},
         "malformed pulse document"),
        ({"dt": 0.1, "instructions": [{"channel": "a", "t0": 0, "samples": [0.1]}]},
         "malformed pulse document"),
        ({"dt": 0.1, "instructions": [{"channel": "a", "t0": 0, "samples": 0.1}]},
         "malformed pulse document"),
        ({"dt": 0.1, "instructions": 5}, "malformed pulse document"),
        ({"dt": "x", "instructions": []}, "malformed pulse document"),
        # JSON types: float() read true as 1.0, complex() the sample as 1+0j,
        # and str() null as the channel "None"
        ({"dt": True, "instructions": []}, "dt must be a number"),
        ({"dt": 0.1, "instructions": [
            {"channel": "a", "t0": 0, "samples": [[0.1, 0.0], [True, False]]}
        ]}, "sample must be a number"),
        ({"dt": 0.1, "instructions": [
            {"channel": None, "t0": 0, "samples": [[0.1, 0.0]]}
        ]}, "channel must be a string"),
    ],
    ids=["no-channel", "scalar-sample", "scalar-samples", "non-list", "dt-text",
         "dt-true", "sample-booleans", "channel-null"],
)
def test_parse_raises_typed_error_on_malformed_fields(doc, message):
    with pytest.raises(PulseError, match=message):
        parse_program(doc)


def test_an_empty_program_has_no_signal():
    with pytest.raises(PulseError, match="cannot build a signal from an empty program"):
        PulseProgram(dt=0.1).to_signal()


@pytest.mark.parametrize("t0", [1.7, "1", None, True, float("nan"), float("inf")])
def test_parse_rejects_t0_that_is_no_whole_number(t0):
    # int() would truncate 1.7 to 1 and shift the pulse by a fraction of dt
    entry = {"channel": "a", "t0": t0, "samples": [[0.1, 0.0]]}
    doc = {"dt": 0.1, "instructions": [entry]}
    with pytest.raises(PulseError, match="t0"):
        parse_program(doc)
    for whole in (2.0, np.int64(2), 10**400):
        entry["t0"] = whole
        assert parse_program(doc).instructions[0].t0 == whole


@pytest.mark.parametrize("t0", [10**400, 2**62])
def test_signal_of_a_program_too_long_for_numpy_raises_typed_error(t0):
    # the slice limit refuses both sizes before anything is allocated
    doc = {"dt": 0.1, "instructions": [{"channel": "a", "t0": t0, "samples": [[0.1, 0.0]]}]}
    with pytest.raises(PulseError, match="samples"):
        parse_program(doc).to_signal()


def test_parse_rejects_a_t0_over_the_int_digit_limit():
    text = '{"dt": 0.1, "instructions": [{"channel": "a", "t0": %s, "samples": [[0.1, 0.0]]}]}'
    with pytest.raises(PulseError, match="JSON"):
        parse_program(text % ("9" * 5000))


def test_parse_rejects_a_non_finite_dt():
    with pytest.raises(PulseError, match="dt must be positive and finite, got inf"):
        parse_program('{"dt": Infinity, "instructions": []}')


# ---------------------------------------------------------------- library


def test_library_rejects_a_non_finite_dt():
    with pytest.raises(LibraryError, match="dt must be positive and finite, got inf"):
        PulseLibrary(dt=float("inf"))


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


@pytest.mark.parametrize("value", ["x", None, float("nan"), "nan", -1.0, 10**400, True])
def test_transform_rejects_bad_accept_threshold(value):
    # NaN would pass every run (loss > nan is False); -1 would fail every run
    with pytest.raises(OptimizationError, match="accept-threshold"):
        transform(
            parse_circuit("X(q[0]);"),
            x_model(),
            "GRAPE",
            {"max-time": 10.0, "accept-threshold": value},
        )


def test_transform_rejects_unbound_circuit():
    with pytest.raises(CircuitError):
        transform(parse_circuit("Rx(q[0], t);"), x_model(), "GRAPE", {"max-time": 10.0})


def test_transform_requires_max_time():
    with pytest.raises(OptimizationError):
        transform(parse_circuit("X(q[0]);"), x_model(), "GRAPE", {})


def test_transform_rejects_contradictory_sample_count():
    # the sample count follows from max-time and dt, so it is no option
    with pytest.raises(OptimizationError, match="unknown option.*n-samples"):
        transform(
            parse_circuit("X(q[0]);"),
            x_model(),
            "GRAPE",
            {"max-time": 10.0, "n-samples": 99},
        )


def test_transform_checks_qubit_count(fixtures):
    # the target is built on the model's qubits: a gate past the last one raises
    two_qubit_model = parse_model((fixtures / "model_2q_12ch.json").read_text())
    with pytest.raises(CircuitError, match=r"\(2,\) out of range for 2 qubit"):
        transform(parse_circuit("X(q[2]);"), two_qubit_model, "GRAPE", {"max-time": 10.0})


@pytest.mark.parametrize("method", ["GRAPE", "krotov", "GOAT"])
def test_circuit_compiles_on_the_models_qubits(fixtures, method):
    # x.xasm names only q[0]; on two qubits its target is X on q[0], I on q[1]
    model = parse_model((fixtures / "model_2q_12ch.json").read_text())
    circuit = parse_circuit((fixtures / "x.xasm").read_text())
    program, result = compile_circuit(circuit, model, method, {"max-time": 10.0})
    assert result.converged
    x = np.array([[0, 1], [1, 0]])
    resim = infidelity(piecewise_propagator(model, program.to_signal()), np.kron(np.eye(2), x))
    # GRAPE and Krotov emit the slices they optimized; GOAT's samples differ
    # from its CF4 steps by discretization error only
    assert abs(resim - result.final_infidelity) <= (1e-5 if method == "GOAT" else 1e-12)
