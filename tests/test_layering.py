"""The optimizers reach the propagation core through four names only.

``optimize/`` propagates with ``dynamics._propagate`` (and Krotov steps with
``_slice_step`` and ``_matmul``) and takes the exact gradient from the
propagation it gets back. The buffers that the core writes for its own
gradient stay inside ``dynamics``: no optimizer module may read them.
"""

import ast
from pathlib import Path

import pytest

OPTIMIZE = Path(__file__).resolve().parent.parent / "src" / "optpulse" / "optimize"
ALLOWED = {"_EPS", "_matmul", "_propagate", "_slice_step"}
PRIVATE_ATTRIBUTES = {"work", "evals", "evecs", "gradient_buffers", "gradient_work"}


def _is_dynamics(node: ast.ImportFrom) -> bool:
    module = (node.module or "").split(".")
    return module[-1:] == ["dynamics"] and (node.level > 0 or module[0] == "optpulse")


def _violations(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and _is_dynamics(node):
            found += [f"imports dynamics.{a.name} (line {node.lineno})"
                      for a in node.names if a.name not in ALLOWED]
        elif isinstance(node, ast.ImportFrom) and any(
            a.name == "dynamics" for a in node.names
        ):
            found.append(f"imports the dynamics module (line {node.lineno})")
        elif isinstance(node, ast.Import) and any(
            a.name == "optpulse.dynamics" for a in node.names
        ):
            found.append(f"imports the dynamics module (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr in PRIVATE_ATTRIBUTES:
            found.append(f"reads .{node.attr} (line {node.lineno})")
    return found


@pytest.mark.parametrize(
    "path", sorted(OPTIMIZE.glob("*.py")), ids=lambda p: p.name
)
def test_optimizers_use_only_the_cores_public_face(path):
    assert _violations(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, message", [
    ("from ..dynamics import _Propagation", "imports dynamics._Propagation"),
    ("from optpulse.dynamics import slice_propagators",
     "imports dynamics.slice_propagators"),
    ("from .. import dynamics", "imports the dynamics module"),
    ("import optpulse.dynamics", "imports the dynamics module"),
    ("coords, phases = state.work", "reads .work"),
    ("v = state.evecs", "reads .evecs"),
    ("c, *w = state.gradient_buffers()", "reads .gradient_buffers"),
    ("c, *w = state.gradient_work", "reads .gradient_work"),
])
def test_the_layering_check_sees_each_kind_of_breach(source, message):
    assert [v for v in _violations(source) if v.startswith(message)]


def test_the_layering_check_passes_the_cores_public_face():
    source = "from ..dynamics import _EPS, _matmul, _propagate, _slice_step\n"
    assert _violations(source + "g = state.gradient(ops, boundary, dt)") == []
