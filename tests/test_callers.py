"""Every function, class, method and property in ``src/latgen`` has a caller.

A definition counts as used when its name appears somewhere else in the
package's syntax trees: as a name, an attribute or an imported name.
Text does not count, so a docstring that mentions a function keeps
nothing alive, and neither does a definition's reference to itself.
Methods and properties are matched by their bare attribute name, since
the receiver's class is not known from the syntax alone: a method that
shares its name with another class's method, or with a function, counts
as used when either is (``Enclosure.contains`` and
``HalfOpenCell.contains`` keep each other alive).  Dunder methods are
called by the language and are not checked.  A definition with no such
use must be listed in ``ALLOWED`` (methods as ``Class.method``) with the
reason it stays.
"""

import ast
from collections import Counter
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

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _used_names(node) -> Counter:
    used = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            used[sub.name.rsplit(".", 1)[-1]] += 1
    return used


def _definitions():
    """(module, qualified name, node) for each module-level function and
    class, and each non-dunder method or property of those classes."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, _DEFINITIONS):
                continue
            yield path.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _DEFINITIONS) and not (
                        member.name.startswith("__") and member.name.endswith("__")
                    ):
                        yield path.name, f"{node.name}.{member.name}", member


def _unused():
    """Qualified names whose bare name appears nowhere in src/ outside
    their own definition."""
    everywhere = Counter()
    for path in SRC.glob("*.py"):
        everywhere += _used_names(ast.parse(path.read_text(), str(path)))
    unused = set()
    for module, qualified, node in _definitions():
        name = qualified.rsplit(".", 1)[-1]
        if everywhere[name] - _used_names(node)[name] <= 0:
            unused.add((module, qualified))
    return unused


def test_every_library_definition_has_a_caller():
    flagged = {
        f"{module}:{name}"
        for module, name in _unused()
        if name not in ALLOWED and not name.startswith(DISPATCHED_PREFIX)
    }
    assert not flagged, f"no caller in src/ and not in ALLOWED: {sorted(flagged)}"


def test_allowlist_is_current():
    defined = {name for _, name, _ in _definitions()}
    unused = {name for _, name in _unused()}
    assert set(ALLOWED) <= defined, "ALLOWED names a definition that is gone"
    assert set(ALLOWED) <= unused, "ALLOWED names a definition that now has a caller"
