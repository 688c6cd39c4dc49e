"""Every identifier DESIGN.md names in backticks exists in the code.

An identifier is a backticked dotted name, optionally called (``name()``);
it resolves when each of its dotted parts is a word of some Python file
under ``src/``, ``tests/`` or ``benchmarks/`` (this file excluded), so
metric, workload and event names held in strings count.  File names
(``engine.py``) are not identifiers.  The reverse direction -- deleted
names gone from ``src/`` -- is
``tests/test_shard.py::TestOneShardingPathOnePoolLifecycle``.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?:\(\))?")
FILE_SUFFIXES = (".py", ".json", ".jsonl", ".md", ".sh", ".txt", ".prom")
#: What DESIGN.md cites from outside the code base: the standard library,
#: JSON and numpy.
ALLOWED = frozenset({"heapq", "bytearray", "RuntimeWarning", "null", "np.union1d"})


def code_words():
    words = set()
    for folder in ("src", "tests", "benchmarks"):
        for path in (ROOT / folder).rglob("*.py"):
            if path.resolve() != pathlib.Path(__file__).resolve():
                words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return words


def design_identifiers():
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    return sorted(
        {
            span
            for span in re.findall(r"`([^`\n]+)`", text)
            if IDENTIFIER.fullmatch(span) and not span.endswith(FILE_SUFFIXES)
        }
    )


def test_design_names_only_existing_identifiers():
    identifiers = design_identifiers()
    assert len(identifiers) > 300  # the parser still finds the prose's names
    words = code_words()
    stale = [
        identifier
        for identifier in identifiers
        if identifier not in ALLOWED
        and not all(part in words for part in identifier.removesuffix("()").split("."))
    ]
    assert not stale, f"DESIGN.md names identifiers the code does not have: {stale}"
