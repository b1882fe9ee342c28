"""Every public name that `bergmanlab` exports, and every function, method
and class that `bergmanlab` defines, has a reader: a use in the
library's own modules (not the line that defines it), in a demo, in the
acceptance criteria, or in the benchmark (`perfbench/` and `tools/`,
which call the library).  A name that only its own unit tests call is a
code path that nothing calls."""

import ast
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bergmanlab"

# definitions that only unit tests read, kept on purpose
EXEMPT = {
    "ChartMap.forward": "the chart itself, which the automorphism-based "
                        "balls and local grids of ROADMAP items 14 and 19 "
                        "build on",
    "ChartMap.inverse": "the chart's inverse, for the same items",
    "OrthonormalBasis.evaluate_derivative": "the unbatched derivative the "
                                            "kernel tests take as the "
                                            "reference for the batches",
}


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


def _defined():
    """(qualified name, name) of every def and class in the package,
    nested ones included, leaving out dunder methods, which Python
    itself calls."""
    found = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                found.append((prefix + child.name, child.name))
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), "")
    return [(q, name) for q, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def _reads(path):
    """Name tokens of a file, leaving out comments, strings and the name
    that follows `def` or `class`."""
    counts = Counter()
    previous = None
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                counts[tok.string] += 1
            previous = tok.string if tok.type == tokenize.NAME else None
    return counts


def _readers():
    files = [p for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"]
    for folder in ("demos", "perfbench", "tools"):
        files += sorted((ROOT / folder).glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return sum((_reads(p) for p in files), Counter())


def test_every_export_has_a_reader():
    readers = _readers()
    unread = [name for name in _exported() if not readers[name]]
    assert not unread, \
        f"exported, but nothing outside their own tests reads: {unread}"


def test_every_definition_has_a_reader():
    readers = _readers()
    defined = _defined()
    unread = [q for q, name in defined
              if not readers[name] and q not in EXEMPT]
    assert not unread, \
        f"defined, but nothing outside their own tests reads: {unread}"
    # an exemption names a definition that still needs it
    stale = sorted(set(EXEMPT) - {q for q, name in defined
                                  if not readers[name]})
    assert not stale, f"exempt, but read or gone: {stale}"
