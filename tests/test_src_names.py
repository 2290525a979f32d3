"""Every function and class in ``src/`` has a caller: its name appears in
``src/``, ``demos/`` or ``perfbench/`` outside its own definition.  A
method counts only when one of those files reads it as an attribute
(``x.name``), so a common method name that a variable also bears does not
hide a method that only tests call.  Every setting of the decoder
configuration has a caller too: one of those files passes it by
keyword."""
import ast
import dataclasses
import pathlib

import pytest

from sketchdec.decoders import DecoderConfig
from sketchdec.scoring import ScoreParams

ROOT = pathlib.Path(__file__).resolve().parent.parent

# public wrappers kept for library users, though nothing here calls them
ALLOWED = {"decode_beam"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scan(node, enclosing, defined, named, where):
    """Add node's definitions to defined as (name, where:line, is_method)
    and the names it mentions to named as (name, read_as_attribute),
    leaving out a name mentioned inside its own definition.  Only
    definitions under a where are collected."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITIONS):
            if where is not None:
                is_method = isinstance(node, ast.ClassDef) and not isinstance(
                    child, ast.ClassDef
                )
                defined.append((child.name, f"{where}:{child.lineno}", is_method))
            _scan(child, enclosing | {child.name}, defined, named, where)
            continue
        read = False
        if isinstance(child, ast.Name):
            name = child.id
        elif isinstance(child, ast.Attribute):
            name, read = child.attr, isinstance(child.ctx, ast.Load)
        elif isinstance(child, ast.alias):
            name = child.name.rpartition(".")[2]
        else:
            name = None
        if name is not None and name not in enclosing:
            named.add((name, read))
        _scan(child, enclosing, defined, named, where)


def unnamed_definitions(sources: dict[str, str], defining: set[str]) -> list[str]:
    """The definitions in the defining sources that no source names, or,
    for a method, that no source reads as an attribute, as "name
    where:line"; dunder methods are called by the language."""
    defined: list[tuple[str, str, bool]] = []
    named: set[tuple[str, bool]] = set()
    for where, text in sources.items():
        tree = ast.parse(text, where)
        _scan(tree, frozenset(), defined, named, where if where in defining else None)
    anywhere = {name for name, _ in named}
    as_attribute = {name for name, read in named if read}
    return [
        f"{name} {at}"
        for name, at, is_method in defined
        if name not in (as_attribute if is_method else anywhere)
        and not (name.startswith("__") and name.endswith("__"))
    ]


def test_the_scan_flags_a_name_read_only_by_its_own_definition():
    sources = {
        "lib.py": (
            "def used(): return 1\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Thing:\n"
            "    def method(self): return self.other()\n"
            "    def other(self): return 2\n"
            "    def __repr__(self): return 'x'\n"
        ),
        "demo.py": "from lib import used\nused()\nThing().method()\n",
    }
    assert unnamed_definitions(sources, {"lib.py"}) == ["recursive lib.py:2"]


def test_the_scan_counts_a_method_only_when_read_as_an_attribute():
    sources = {
        "lib.py": (
            "class Report:\n"
            "    def data(self): return 1\n"
            "    def note(self): return 2\n"
            "    def total(self): return 3\n"
            "def rows(): return Report()\n"
        ),
        # a variable named like a method, or a store to its attribute, does
        # not call it; a plain name still counts for a function
        "demo.py": "data = 1\nr = rows()\nr.note = data\nr.total()\n",
    }
    assert unnamed_definitions(sources, {"lib.py"}) == [
        "data lib.py:2",
        "note lib.py:3",
    ]


def unset_fields(sources: dict[str, str], cls) -> list[str]:
    """The fields of dataclass cls that no call in the sources passes by
    keyword, to cls or to a ``replace``."""
    passed = set()
    for where, text in sources.items():
        for node in ast.walk(ast.parse(text, where)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in (cls.__name__, "replace"):
                passed.update(k.arg for k in node.keywords if k.arg is not None)
    return [f.name for f in dataclasses.fields(cls) if f.name not in passed]


def program_sources() -> dict[str, str]:
    return {
        str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
        for folder in ("src", "demos", "perfbench")
        for p in sorted((ROOT / folder).rglob("*.py"))
    }


@dataclasses.dataclass
class Pair:
    first: int = 0
    second: int = 0


def test_the_scan_flags_a_field_no_call_passes():
    sources = {
        # a positional argument or a spread dict names no field
        "a.py": "Pair(first=1)\nPair(1, 2)\n",
        "b.py": "dataclasses.replace(p, **kw)\n",
    }
    assert unset_fields(sources, Pair) == ["second"]
    sources["b.py"] = "replace(p, second=2)\n"
    assert unset_fields(sources, Pair) == []


@pytest.mark.parametrize("cls", [DecoderConfig, ScoreParams], ids=lambda c: c.__name__)
def test_every_setting_is_passed_outside_the_tests(cls):
    assert unset_fields(program_sources(), cls) == []


def test_every_src_definition_is_named_outside_itself():
    sources = program_sources()
    defining = {where for where in sources if where.startswith("src")}
    flagged = unnamed_definitions(sources, defining)
    assert [f for f in flagged if f.split()[0] not in ALLOWED] == []
    # an allowlisted name that gains a caller, or goes, leaves the list
    assert sorted(f.split()[0] for f in flagged) == sorted(ALLOWED)
