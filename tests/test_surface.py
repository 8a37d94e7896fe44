"""Every public function in ``src/`` has a caller there, or a stated reason;
and no module there names an extended-precision type.

A function that no CLI path calls and only tests use either moves into
``tests/`` as a reference or is deleted.  This scan keeps that rule: it
lists each public function and public method of ``src/gravclock/*.py``
that nothing else in ``src/`` names, and the list must equal the
allowlist below, each entry with its reason.
"""

from __future__ import annotations

import ast
import collections
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gravclock"

ALLOWED_WITHOUT_CALLER = {
    "bouncer.airy_ai_prime": "public Airy contract in the README",
    "bouncer.airy_zero": "public Airy contract in the README",
    "core.bar_g": "Scenario.value reads it by the target's name",
    "gaussian.wavefunction_values": "perfbench's tracer wraps it by name; the reference sampler",
    "gaussian.state_norm_sq": "the closed-form norm reference",
    "estimation.reduced_qfi_bloch": "the only non-closed check on qfi_reduced until a grid route",
    "estimation.qfi_ff_asymptotic": "the dt^6 term; a dt_td report field will call it",
    "estimation.quadrature_phi": "per-method FI diagnostics will call it",
    "oracle.probabilities_numeric": "an fi grid oracle will call it",
}


def _names(node: ast.AST) -> collections.Counter:
    """Every name, attribute and imported name under node."""
    out = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
    return out


def _uncalled_public_functions() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), collections.Counter())
    found = set()
    for module, tree in trees.items():
        bodies = [tree.body] + [c.body for c in tree.body if isinstance(c, ast.ClassDef)]
        for body in bodies:
            for node in body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")
                        and used[node.name] == _names(node)[node.name]):
                    found.add(f"{module}.{node.name}")
    return found


def test_every_public_function_has_a_caller_or_a_reason():
    assert _uncalled_public_functions() == set(ALLOWED_WITHOUT_CALLER)


# numpy's extended-precision types: float64 is the one precision of src/.
_EXTENDED = {"longdouble", "clongdouble", "float128", "float96"}


def test_no_module_names_an_extended_precision_type():
    """Every phase a route subtracts or wraps is a float64 exact difference, so
    no module names an extended type: as a name, an attribute, an import or a
    string constant (a dtype given by name)."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        assert not (set(_names(tree)) | strings) & _EXTENDED, path.name
