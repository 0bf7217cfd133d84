"""Every module-level function and class in ``src/latgen`` has a caller.

A definition counts as used when its name appears somewhere else in the
package's syntax trees: as a name, an attribute or an imported name.
Text does not count, so a docstring that mentions a function keeps
nothing alive, and neither does a function's reference to itself.  A
definition with no such use must be listed in ``ALLOWED`` with the
reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latgen"

# handlers ``cli._cmd_<subcommand>`` are looked up by name in build_parser
DISPATCHED_PREFIX = "_cmd_"

ALLOWED = {
    "generation_prob_exact": "acceptance criterion 7 checks it against the brute-force count",
    "abelian_groups_up_to": "acceptance criterion 7 draws its groups from it",
    "reports_to_csv": "perfbench/run.py round-trips the unimodular output through it",
    "parse_reports_csv": "perfbench/run.py reads the unimodular output with it",
}


def _used_names(node) -> set:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name.rsplit(".", 1)[-1])
    return used


def _definitions_and_uses():
    defined = set()
    used = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            names = _used_names(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add((path.name, node.name))
                names.discard(node.name)
            used |= names
    return defined, used


def test_every_library_definition_has_a_caller():
    defined, used = _definitions_and_uses()
    unused = {
        f"{module}:{name}"
        for module, name in defined
        if name not in used and name not in ALLOWED and not name.startswith(DISPATCHED_PREFIX)
    }
    assert not unused, f"no caller in src/ and not in ALLOWED: {sorted(unused)}"


def test_allowlist_is_current():
    defined, used = _definitions_and_uses()
    assert set(ALLOWED) <= {name for _, name in defined}, "ALLOWED names a definition that is gone"
    assert not set(ALLOWED) & used, "ALLOWED names a definition that now has a caller"
