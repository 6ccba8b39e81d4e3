"""Digital-to-analog lowering: circuits to scheduled pulse programs.

Two paths produce a PulseProgram:

* ``transform`` -- the optimal-control route: circuit -> target unitary ->
  optimizer dispatch -> one pulse instruction per driven channel.
* ``library_lower`` -- the default-calibration route: every gate is looked
  up in a pulse library and its fragment is time-shifted behind earlier
  activity on any channel it touches (gates stay atomic; gates on disjoint
  channels may overlap).

Programs serialize to a canonical JSON document (sorted instructions,
sorted keys) so equality of programs is byte-equality of documents.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .circuits import Circuit, circuit_unitary
from .dynamics import MAX_SLICE_ENTRIES, ControlSignal
from .errors import (
    CircuitError,
    LibraryError,
    OptimizationError,
    PulseError,
    TransformError,
)
from .model import SystemModel
from .optimize import get_optimizer

DEFAULT_ACCEPT_THRESHOLD = 5e-2


@dataclass(frozen=True)
class PulseInstruction:
    """A complex sample train on one channel, starting at sample index t0."""

    channel: str
    t0: int
    samples: tuple[complex, ...]

    def __post_init__(self):
        if self.t0 < 0:
            raise PulseError(f"start time must be >= 0, got {self.t0}")
        if not self.samples:
            raise PulseError(f"empty pulse on channel {self.channel!r}")
        object.__setattr__(
            self, "samples", tuple(complex(s) for s in self.samples)
        )

    @property
    def end(self) -> int:
        return self.t0 + len(self.samples)


@dataclass(frozen=True)
class PulseProgram:
    """Scheduled pulse instructions sharing one sample period dt.

    Per channel, instruction windows [t0, t0+len) may not overlap.
    total_duration is measured in samples.
    """

    dt: float
    instructions: tuple[PulseInstruction, ...] = ()
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.dt > 0:
            raise PulseError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "metadata", dict(self.metadata))
        windows: dict[str, list[tuple[int, int]]] = {}
        for instr in self.instructions:
            spans = windows.setdefault(instr.channel, [])
            for start, end in spans:
                if instr.t0 < end and start < instr.end:
                    raise PulseError(
                        f"overlapping instructions on channel {instr.channel!r}"
                        f": [{start}, {end}) and [{instr.t0}, {instr.end})"
                    )
            spans.append((instr.t0, instr.end))

    @property
    def total_duration(self) -> int:
        return max((i.end for i in self.instructions), default=0)

    @property
    def channels(self) -> tuple[str, ...]:
        return tuple(sorted({i.channel for i in self.instructions}))

    def shifted(self, offset: int) -> "PulseProgram":
        return PulseProgram(
            dt=self.dt,
            instructions=tuple(
                PulseInstruction(i.channel, i.t0 + offset, i.samples)
                for i in self.instructions
            ),
            metadata=self.metadata,
        )

    def to_signal(self) -> ControlSignal:
        """Materialize per-channel sample arrays (zeros where idle)."""
        if self.total_duration > MAX_SLICE_ENTRIES:  # no engine could take them
            raise PulseError(
                f"program spans more than {MAX_SLICE_ENTRIES} samples per "
                "channel, the slice limit of one grid"
            )
        arrays = {
            ch: np.zeros(self.total_duration, dtype=complex) for ch in self.channels
        }
        if not arrays:
            raise PulseError("cannot build a signal from an empty program")
        for instr in self.instructions:
            arrays[instr.channel][instr.t0 : instr.end] = instr.samples
        return ControlSignal.from_samples(arrays, self.dt)


def transform(
    circuit: Circuit,
    model: SystemModel,
    method: str,
    options: Mapping[str, object] | None = None,
) -> PulseProgram:
    """Compile a concrete circuit into a monolithic pulse program.

    The circuit's unitary becomes the optimization target; horizon and the
    remaining problem fields are deduced from the model plus options
    (max-time is required). If the optimizer cannot reach accept-threshold
    (default 5e-2) a TransformError carrying the best-effort program is
    raised.
    """
    program, _ = compile_circuit(circuit, model, method, options)
    return program


def compile_circuit(
    circuit: Circuit,
    model: SystemModel,
    method: str,
    options: Mapping[str, object] | None = None,
):
    """Like transform, but also returns the underlying optimizer result."""
    opts = dict(options or {})
    raw = opts.pop("accept-threshold", DEFAULT_ACCEPT_THRESHOLD)
    try:
        accept = float(raw)
    except (TypeError, ValueError, OverflowError):
        accept = float("nan")
    if not accept >= 0:  # also rejects NaN, against which every loss passes
        raise OptimizationError(f"accept-threshold must be a number >= 0, got {raw!r}")
    if not circuit.is_concrete:
        raise CircuitError(
            "circuit has unbound parameters "
            f"{circuit.free_params}; bind them before compiling"
        )
    target = circuit_unitary(circuit)
    result = get_optimizer(method, opts).optimize(model=model, target=target)
    instructions = tuple(
        PulseInstruction(channel=ch, t0=0, samples=tuple(samples))
        for ch, samples in sorted(result.synthesized_samples.items())
    )
    program = PulseProgram(
        dt=model.dt,
        instructions=instructions,
        metadata={"method": result.method, "infidelity": result.final_infidelity},
    )
    if result.final_infidelity > accept:
        raise TransformError(
            f"{result.method} stopped at infidelity "
            f"{result.final_infidelity:.3e} (> accept-threshold {accept:g}, "
            f"status {result.status})",
            program=program,
            infidelity=result.final_infidelity,
            result=result,
        )
    return program, result


class PulseLibrary:
    """Map from (gate name, target qubits) to a pulse-program fragment."""

    def __init__(self, dt: float, model: SystemModel | None = None):
        if not dt > 0:
            raise LibraryError(f"dt must be positive, got {dt}")
        self.dt = dt
        self.model = model
        self._entries: dict[tuple[str, tuple[int, ...]], PulseProgram] = {}

    def add(
        self, name: str, targets: tuple[int, ...], fragment: PulseProgram
    ) -> None:
        if abs(fragment.dt - self.dt) > 1e-12 * max(1.0, self.dt):
            raise LibraryError(
                f"fragment dt {fragment.dt} does not match library dt {self.dt}"
            )
        if self.model is not None:
            missing = set(fragment.channels) - set(self.model.channels)
            if missing:
                raise LibraryError(
                    f"fragment for {name}{list(targets)} uses channel(s) "
                    f"{sorted(missing)} absent from the model"
                )
        self._entries[(name, tuple(targets))] = fragment

    def lookup(self, name: str, targets: tuple[int, ...]) -> PulseProgram:
        try:
            return self._entries[(name, tuple(targets))]
        except KeyError:
            raise LibraryError(
                f"no pulse entry for gate {name} on qubit(s) {list(targets)}"
            ) from None


def library_lower(circuit: Circuit, library: PulseLibrary) -> PulseProgram:
    """Concatenate library fragments gate by gate.

    Each gate starts after every earlier instruction on any channel its
    fragment touches has finished (the whole fragment counts as busy time
    on all its channels, keeping gates atomic); gates with disjoint
    channels are free to overlap.
    """
    if not circuit.is_concrete:
        raise LibraryError("circuit has unbound parameters")
    channel_free: dict[str, int] = {}
    placed: list[PulseInstruction] = []
    for gate in circuit.gates:
        fragment = library.lookup(gate.name, gate.targets)
        start = max((channel_free.get(ch, 0) for ch in fragment.channels), default=0)
        placed.extend(fragment.shifted(start).instructions)
        busy_until = start + fragment.total_duration
        for ch in fragment.channels:
            channel_free[ch] = busy_until
    return PulseProgram(dt=library.dt, instructions=tuple(placed))


def _indented(value: object, level: int) -> str:
    """json.dumps(value, sort_keys=True, indent=2) as written at that depth."""
    # the encoder escapes newlines inside strings, so every raw one is layout
    text = json.dumps(value, sort_keys=True, indent=2)
    return text.replace("\n", "\n" + "  " * level)


def emit_program(program: PulseProgram) -> str:
    """Canonical JSON: instructions sorted by (t0, channel), sorted keys.

    The bytes are those of json.dumps(doc, sort_keys=True, indent=2) with
    samples as [re, im] pairs. That indenting encoder is pure Python, so the
    samples go through the compact C encoder, which formats floats (NaN and
    Infinity too) the same way, and are laid out here.
    """
    ordered = sorted(program.instructions, key=lambda i: (i.t0, i.channel))
    entries = []
    for instr in ordered:
        # "[[a, b], [c, d]]": float text never holds ", " or brackets
        pairs = (
            json.dumps([[s.real, s.imag] for s in instr.samples])[2:-2]
            .replace(", ", ",\n          ")
            .replace("],\n          [", "\n        ],\n        [\n          ")
        )
        entries.append(
            "{\n"
            f'      "channel": {_indented(instr.channel, 3)},\n'
            f'      "samples": [\n        [\n          {pairs}\n        ]\n      ],\n'
            f'      "t0": {_indented(instr.t0, 3)}\n'
            "    }"
        )
    instructions = "[\n    " + ",\n    ".join(entries) + "\n  ]" if entries else "[]"
    return (
        "{\n"
        f'  "dt": {_indented(program.dt, 1)},\n'
        f'  "instructions": {instructions},\n'
        f'  "metadata": {_indented(dict(program.metadata), 1)}\n'
        "}\n"
    )


def parse_program(document: str | Mapping) -> PulseProgram:
    """Inverse of emit_program; validates the document shape."""
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except ValueError as exc:  # JSONDecodeError, or an int over the digit limit
            raise PulseError(f"pulse document is not valid JSON: {exc}")
    else:
        doc = dict(document)
    if not isinstance(doc, dict):
        raise PulseError("pulse document must be a JSON object")
    unknown = set(doc) - {"dt", "instructions", "metadata"}
    if unknown:
        raise PulseError(f"unknown pulse document key(s) {sorted(unknown)}")
    if "dt" not in doc or "instructions" not in doc:
        raise PulseError("pulse document needs 'dt' and 'instructions'")
    try:
        instructions = []
        for entry in doc["instructions"]:
            extra = set(entry) - {"channel", "t0", "samples"}
            if extra:
                raise PulseError(f"unknown instruction key(s) {sorted(extra)}")
            samples = tuple(complex(re, im) for re, im in entry["samples"])
            t0 = entry["t0"]
            whole = (isinstance(t0, Integral) and not isinstance(t0, bool)) or (
                isinstance(t0, float) and t0.is_integer()
            )
            if not whole:
                raise PulseError(f"t0 must be a whole sample index, got {t0!r}")
            instructions.append(PulseInstruction(str(entry["channel"]), int(t0), samples))
        return PulseProgram(
            dt=float(doc["dt"]),
            instructions=tuple(instructions),
            metadata=doc.get("metadata", {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PulseError(f"malformed pulse document: {exc!r}") from None


def load_program(path: str) -> PulseProgram:
    with open(path, encoding="utf-8") as fh:
        return parse_program(fh.read())
