"""Sketch templates: ordered chunks of fixed text and model-filled variables.

A sketch interleaves deterministic chunks (text that is forced during
decoding but still likelihood-scored) with variable chunks that the model
fills in.  Sketches are either static (a fixed chunk list) or dynamic (a
program that emits the next chunks as a function of the values bound so
far, which lets templates branch on earlier completions).

A chunk source has one method, ``pending(values)``.  ``values`` maps the
name of each variable bound so far to its value, in binding order; names
are unique.  It returns the next run: zero or more deterministic chunks,
then at most one variable chunk.  An empty run means the template is
complete, and a run of deterministic chunks only is its last: the caller
forces those chunks and stops, without asking the source again.
"""
from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    DuplicateAdjacentVariable,
    DynamicProgramError,
    EmptyDeterministicChunk,
    MissingBinding,
    SketchSyntaxError,
)

DEFAULT_MAX_TOKENS = 64

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

# OneOf member sets kept for the process, oldest evicted first.  Equal sets
# share one tuple, so the decoders' OneOf index, keyed by the tuple's id,
# serves every sketch over the set; a set evicted here is only made again.
ONE_OF_MEMBERS_SIZE = 1024
_MEMBERS: dict[tuple[str, ...], tuple[str, ...]] = {}
_MEMBERS_LOCK = threading.Lock()


def _shared_members(members: tuple[str, ...]) -> tuple[str, ...]:
    """The process's one tuple equal to ``members``."""
    with _MEMBERS_LOCK:
        kept = _MEMBERS.get(members)
        if kept is None:
            while len(_MEMBERS) >= ONE_OF_MEMBERS_SIZE:
                del _MEMBERS[next(iter(_MEMBERS))]
            kept = _MEMBERS[members] = members
    return kept


@dataclass(frozen=True)
class OneOf:
    """Membership constraint: the decoded value must equal one member."""

    members: tuple[str, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("OneOf requires at least one member")
        if any(not isinstance(m, str) or m == "" for m in self.members):
            raise ValueError("OneOf members must be non-empty strings")
        if len(set(self.members)) != len(self.members):
            raise ValueError("OneOf members must be distinct")
        # canonical order makes structural equality independent of input order
        members = _shared_members(tuple(sorted(self.members)))
        object.__setattr__(self, "members", members)


@dataclass(frozen=True)
class VariableSpec:
    """Declaration of a model-filled slot."""

    name: str
    stop_phrases: tuple[str, ...] = ()
    max_tokens: int = DEFAULT_MAX_TOKENS
    one_of: OneOf | None = None

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise ValueError(f"variable name {self.name!r} is not an identifier")
        if any(not p for p in self.stop_phrases):
            raise ValueError("stop phrases must be non-empty")
        if not isinstance(self.max_tokens, int) or isinstance(self.max_tokens, bool):
            raise ValueError("max_tokens must be an integer")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        object.__setattr__(self, "stop_phrases", tuple(self.stop_phrases))


@dataclass(frozen=True)
class Chunk:
    """One template element: deterministic text or a variable slot."""

    kind: str  # "det" | "var"
    text: str = ""
    var: VariableSpec | None = None

    @classmethod
    def det(cls, text: str) -> "Chunk":
        return cls(kind="det", text=text)

    @classmethod
    def variable(cls, spec: VariableSpec) -> "Chunk":
        return cls(kind="var", var=spec)

    @property
    def is_det(self) -> bool:
        return self.kind == "det"

    @property
    def is_var(self) -> bool:
        return self.kind == "var"

    def __post_init__(self):
        if self.kind not in ("det", "var"):
            raise ValueError(f"unknown chunk kind {self.kind!r}")
        if self.kind == "det" and self.text == "":
            raise EmptyDeterministicChunk(-1, "deterministic chunk text is empty")
        if self.kind == "var" and self.var is None:
            raise ValueError("variable chunk requires a VariableSpec")


@dataclass(frozen=True)
class Binding:
    """A decoded variable value plus its raw log-probability bookkeeping."""

    name: str
    value: str
    raw_logprob: float = 0.0
    token_count: int = 0


class Bindings:
    """Immutable ordered collection of variable bindings, keyed by name."""

    __slots__ = ("_items", "_by_name")

    def __init__(self, items: Iterable[Binding] = ()):
        items = tuple(items)
        by_name = {}
        for b in items:
            if b.name in by_name:
                raise ValueError(f"duplicate binding for {b.name!r}")
            by_name[b.name] = b
        self._items = items
        self._by_name = by_name

    @classmethod
    def from_values(cls, values: Mapping[str, str]) -> "Bindings":
        return cls(Binding(name=k, value=v) for k, v in values.items())

    def value(self, name: str) -> str:
        if name not in self._by_name:
            raise MissingBinding(name)
        return self._by_name[name].value

    def get(self, name: str) -> Binding | None:
        return self._by_name.get(name)

    def as_dict(self) -> dict[str, str]:
        return {b.name: b.value for b in self._items}

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Binding]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, Bindings) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{b.name}={b.value!r}" for b in self._items)
        return f"Bindings({pairs})"


@dataclass(frozen=True)
class Sketch:
    """A named, validated chunk sequence with at least one variable."""

    name: str
    chunks: tuple[Chunk, ...]

    def __post_init__(self):
        object.__setattr__(self, "chunks", tuple(self.chunks))
        if not any(c.is_var for c in self.chunks):
            raise SketchSyntaxError(0, "sketch has no variable chunks")
        seen: dict[str, int] = {}
        prev: Chunk | None = None
        for i, c in enumerate(self.chunks):
            if c.is_var:
                if prev is not None and prev.is_var and prev.var.name == c.var.name:
                    raise DuplicateAdjacentVariable(
                        i, f"adjacent variables share the name {c.var.name!r}"
                    )
                if c.var.name in seen:
                    # bindings are keyed by name, so every variable needs its own
                    raise SketchSyntaxError(
                        i, f"variable name {c.var.name!r} is reused"
                    )
                seen[c.var.name] = i
            prev = c

    @property
    def variables(self) -> tuple[VariableSpec, ...]:
        return tuple(c.var for c in self.chunks if c.is_var)


def _merge_dets(chunks: Sequence[Chunk]) -> tuple[Chunk, ...]:
    merged: list[Chunk] = []
    for c in chunks:
        if c.is_det and merged and merged[-1].is_det:
            merged[-1] = Chunk.det(merged[-1].text + c.text)
        else:
            merged.append(c)
    return tuple(merged)


def _require_keys(obj: dict, allowed: set[str], where: str, position: int) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise SketchSyntaxError(position, f"unknown key(s) {unknown} in {where}")


def _parse_variable(obj: dict, position: int) -> VariableSpec:
    _require_keys(obj, {"kind", "name", "stop", "max_tokens", "constraint"},
                  "variable chunk", position)
    name = obj.get("name")
    if not isinstance(name, str):
        raise SketchSyntaxError(position, "variable chunk requires a string 'name'")
    stop = obj.get("stop", [])
    if not isinstance(stop, list) or any(not isinstance(s, str) for s in stop):
        raise SketchSyntaxError(position, "'stop' must be a list of strings")
    max_tokens = obj.get("max_tokens", DEFAULT_MAX_TOKENS)
    one_of = None
    constraint = obj.get("constraint")
    if constraint is not None:
        if not isinstance(constraint, dict):
            raise SketchSyntaxError(position, "'constraint' must be an object")
        _require_keys(constraint, {"one_of"}, "constraint", position)
        members = constraint.get("one_of")
        if not isinstance(members, list) or any(
            not isinstance(m, str) for m in members
        ):
            raise SketchSyntaxError(position, "'one_of' must be a list of strings")
        try:
            one_of = OneOf(tuple(members))
        except ValueError as e:
            raise SketchSyntaxError(position, str(e)) from e
    try:
        return VariableSpec(
            name=name, stop_phrases=tuple(stop), max_tokens=max_tokens, one_of=one_of
        )
    except ValueError as e:
        raise SketchSyntaxError(position, str(e)) from e


def parse_sketch(document: str) -> Sketch:
    """Parse a strict JSON sketch document.

    Unknown keys anywhere are rejected.  Adjacent deterministic chunks are
    merged.  Raises :class:`SketchSyntaxError` (or one of its subclasses)
    on any violation.
    """
    try:
        data = json.loads(document)
    except json.JSONDecodeError as e:
        raise SketchSyntaxError(e.pos, e.msg) from e
    if not isinstance(data, dict):
        raise SketchSyntaxError(0, "sketch document must be a JSON object")
    _require_keys(data, {"name", "chunks"}, "sketch", 0)
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise SketchSyntaxError(0, "sketch requires a non-empty string 'name'")
    chunk_objs = data.get("chunks")
    if not isinstance(chunk_objs, list):
        raise SketchSyntaxError(0, "'chunks' must be a list")
    chunks: list[Chunk] = []
    for i, obj in enumerate(chunk_objs):
        if not isinstance(obj, dict):
            raise SketchSyntaxError(i, "chunk must be an object")
        kind = obj.get("kind")
        if kind == "det":
            _require_keys(obj, {"kind", "text"}, "deterministic chunk", i)
            text = obj.get("text")
            if not isinstance(text, str):
                raise SketchSyntaxError(i, "deterministic chunk requires string 'text'")
            if text == "":
                raise EmptyDeterministicChunk(i, "deterministic chunk text is empty")
            chunks.append(Chunk.det(text))
        elif kind == "var":
            chunks.append(Chunk.variable(_parse_variable(obj, i)))
        else:
            raise SketchSyntaxError(i, f"chunk kind must be 'det' or 'var', got {kind!r}")
    return Sketch(name=name, chunks=_merge_dets(chunks))


def _chunk_to_obj(chunk: Chunk) -> dict:
    if chunk.is_det:
        return {"kind": "det", "text": chunk.text}
    v = chunk.var
    obj: dict = {"kind": "var", "name": v.name}
    if v.stop_phrases:
        obj["stop"] = list(v.stop_phrases)
    obj["max_tokens"] = v.max_tokens
    if v.one_of is not None:
        obj["constraint"] = {"one_of": list(v.one_of.members)}
    return obj


def serialize_sketch(sketch: Sketch) -> str:
    """Serialize to the same JSON document format accepted by parse_sketch."""
    data = {"name": sketch.name, "chunks": [_chunk_to_obj(c) for c in sketch.chunks]}
    return json.dumps(data, indent=2)


def load_sketch(path: str) -> Sketch:
    with open(path, "r", encoding="utf-8") as f:
        try:
            document = f.read()
        except UnicodeDecodeError as e:
            reason = f"{path} is not UTF-8 text: {e.reason}"
            raise SketchSyntaxError(e.start, reason) from e
    return parse_sketch(document)


def instantiate(sketch: Sketch, bindings: Bindings | Mapping[str, str]) -> str:
    """Substitute bound values into the template.

    Raises MissingBinding if a variable has no value.  Empty values are
    accepted; validation against constraints is a separate concern.
    """
    if not isinstance(bindings, Bindings):
        bindings = Bindings.from_values(bindings)
    parts: list[str] = []
    for c in sketch.chunks:
        if c.is_det:
            parts.append(c.text)
        else:
            parts.append(bindings.value(c.var.name))
    return "".join(parts)


class StaticSketchSource:
    """Chunk source backed by a fixed sketch.

    Its runs are cut once, and ``Sketch`` has already checked them.  With k
    variables bound, the run is the chunks after the k-th variable up to
    and including the next one; past the last variable it is the trailing
    deterministic chunks (possibly none), and with more bound than the
    sketch has, nothing.  Only the number of values is read.
    """

    def __init__(self, sketch: Sketch):
        self.sketch = sketch
        runs: list[tuple[Chunk, ...]] = []
        run: list[Chunk] = []
        for c in sketch.chunks:
            run.append(c)
            if c.is_var:
                runs.append(tuple(run))
                run = []
        runs.append(tuple(run))
        self._runs = tuple(runs)

    def pending(self, values: Mapping[str, str]) -> tuple[Chunk, ...]:
        k = len(values)
        return self._runs[k] if k < len(self._runs) else ()


class DynamicSketchSource:
    """Chunk source driven by a program.

    The program is a callable ``(values) -> sequence of chunks`` returning
    the next run.  It gets a fresh dict of the values bound so far, each
    variable's name to its value in binding order, so it may change the
    dict without effect.  The program must be a pure function of the values
    so that branching decoders can replay it independently per hypothesis;
    what else it depends on, such as a seed or a task instance, it closes
    over.

    ``pending`` checks every run it returns: each element is a ``Chunk``,
    a variable chunk comes last, and its name is not bound yet, since
    values are keyed by name.  A fault of the program, or a run that fails
    a check, is a ``DynamicProgramError``.
    """

    def __init__(self, program: Callable[[dict[str, str]], Sequence[Chunk]]):
        self.program = program

    def pending(self, values: Mapping[str, str]) -> tuple[Chunk, ...]:
        try:
            run = tuple(self.program(dict(values)))
        except Exception as e:  # noqa: BLE001 - program faults become typed errors
            raise DynamicProgramError(f"dynamic program failed: {e!r}") from e
        for i, c in enumerate(run):
            if not isinstance(c, Chunk):
                raise DynamicProgramError(f"run element {i} is not a Chunk: {c!r}")
            if c.is_var and i != len(run) - 1:
                raise DynamicProgramError(
                    "variable chunk must be the last element of a pending run"
                )
        if run and run[-1].is_var and run[-1].var.name in values:
            raise DynamicProgramError(
                f"variable name {run[-1].var.name!r} is reused"
            )
        return run


def as_source(sketch_or_source):
    """Coerce a Sketch into a source; pass sources through unchanged."""
    if isinstance(sketch_or_source, Sketch):
        return StaticSketchSource(sketch_or_source)
    return sketch_or_source
