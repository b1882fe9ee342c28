"""Every public name that `bergmanlab` exports has a reader: a use in the
library's own modules (not the line that defines it), in a demo, or in
the acceptance criteria.  A name that only its own unit tests call is a
code path that nothing calls."""

import ast
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bergmanlab"


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


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


def test_every_export_has_a_reader():
    files = [p for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    readers = sum((_reads(p) for p in files), Counter())
    unread = [name for name in _exported() if not readers[name]]
    assert not unread, \
        f"exported, but nothing outside their own tests reads: {unread}"
