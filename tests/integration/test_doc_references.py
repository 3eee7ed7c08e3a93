"""Every ``repro.…`` path the prose names must still exist.

Renames move modules and functions; the docs that point at them are
not imported by anything, so a dead reference survives until a reader
trips on it.  This walks the backticked dotted paths in the top-level
documents and ``docs/`` and resolves each one: the longest importable
module prefix, then ``getattr`` for the rest.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCUMENTS = sorted(ROOT.glob("docs/*.md")) + [
    ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
]
BACKTICKED = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"repro(?:\.[A-Za-z_]\w*)+")
SIBLING = re.compile(r"\.[A-Za-z_]\w*")


def references(document: Path) -> list[tuple[int, str]]:
    """``(line number, dotted path)`` for every backticked span that
    starts with a ``repro.…`` path (a trailing call signature is
    ignored).  A bare ``.name`` span after one on the same line is the
    inventory tables' shorthand for a sibling module."""
    found = []
    for number, line in enumerate(document.read_text().splitlines(), 1):
        package = None
        for span in BACKTICKED.findall(line):
            match = DOTTED.match(span)
            if match:
                package = match.group().rpartition(".")[0]
                found.append((number, match.group()))
            elif package and SIBLING.fullmatch(span):
                found.append((number, package + span))
    return found


def resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            target = getattr(target, name)
        return target
    raise ImportError(path)


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda path: path.name)
def test_dotted_paths_resolve(document):
    dead = []
    for number, path in references(document):
        try:
            resolve(path)
        except (ImportError, AttributeError):
            dead.append(f"{document.name}:{number}: {path}")
    assert not dead, "\n".join(dead)


def test_the_walk_finds_references():
    """Non-vacuity: the patterns still match how the docs are written."""
    assert sum(len(references(document)) for document in DOCUMENTS) >= 90
    design = {path for _number, path in references(ROOT / "DESIGN.md")}
    assert {"repro.core.engine", "repro.core.scheduler"} <= design  # `.scheduler`
