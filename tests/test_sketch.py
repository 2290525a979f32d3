"""Template parsing, serialization, instantiation, and chunk sources."""
import copy
import gc
import json
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import json_values, or_junk, random_sketch
from sketchdec.errors import (
    DuplicateAdjacentVariable,
    DynamicProgramError,
    EmptyDeterministicChunk,
    MissingBinding,
    SketchdecError,
    SketchSyntaxError,
)
from sketchdec import sketch as sketch_module
from sketchdec.sketch import (
    DEFAULT_MAX_TOKENS,
    Binding,
    Bindings,
    Chunk,
    DynamicSketchSource,
    OneOf,
    Sketch,
    StaticSketchSource,
    VariableSpec,
    instantiate,
    parse_sketch,
    serialize_sketch,
)

LIST4_DOC = """
{"name": "list4", "chunks": [
  {"kind": "det", "text": "- "},
  {"kind": "var", "name": "ITEM1", "stop": ["\\n"], "max_tokens": 8},
  {"kind": "det", "text": "- Frisbee\\n- "},
  {"kind": "var", "name": "ITEM3", "stop": ["\\n"], "max_tokens": 8}
]}
"""


def test_parse_list_template():
    sketch = parse_sketch(LIST4_DOC)
    assert sketch.name == "list4"
    kinds = [c.kind for c in sketch.chunks]
    assert kinds == ["det", "var", "det", "var"]
    assert sketch.chunks[0].text == "- "
    item1 = sketch.chunks[1].var
    assert item1.name == "ITEM1"
    assert item1.stop_phrases == ("\n",)
    assert item1.max_tokens == 8
    assert item1.one_of is None
    assert [v.name for v in sketch.variables] == ["ITEM1", "ITEM3"]


def test_parse_defaults():
    sketch = parse_sketch('{"name": "s", "chunks": [{"kind": "var", "name": "X"}]}')
    spec = sketch.chunks[0].var
    assert spec.stop_phrases == ()
    assert spec.max_tokens == DEFAULT_MAX_TOKENS
    assert spec.one_of is None


def test_parse_one_of_constraint():
    doc = (
        '{"name": "s", "chunks": [{"kind": "var", "name": "X",'
        ' "constraint": {"one_of": ["b", "a"]}}]}'
    )
    spec = parse_sketch(doc).chunks[0].var
    # canonical member order
    assert spec.one_of.members == ("a", "b")


def test_adjacent_deterministic_chunks_merge():
    doc = (
        '{"name": "s", "chunks": [{"kind": "det", "text": "a"},'
        ' {"kind": "det", "text": "b"}, {"kind": "var", "name": "X"}]}'
    )
    sketch = parse_sketch(doc)
    assert len(sketch.chunks) == 2
    assert sketch.chunks[0].text == "ab"


@pytest.mark.parametrize(
    "doc",
    [
        "not json",
        '["not", "an", "object"]',
        '{"chunks": []}',
        '{"name": "", "chunks": []}',
        '{"name": "s", "chunks": [], "extra": 1}',
        '{"name": "s", "chunks": [{"kind": "det", "text": "a"}]}',
        '{"name": "s", "chunks": [{"kind": "wat"}]}',
        '{"name": "s", "chunks": [{"kind": "det"}]}',
        '{"name": "s", "chunks": [{"kind": "det", "text": "a", "x": 1}]}',
        '{"name": "s", "chunks": [{"kind": "var"}]}',
        '{"name": "s", "chunks": [{"kind": "var", "name": "9bad"}]}',
        '{"name": "s", "chunks": [{"kind": "var", "name": "X", "stop": "\\n"}]}',
        '{"name": "s", "chunks": [{"kind": "var", "name": "X", "max_tokens": 0}]}',
        '{"name": "s", "chunks": [{"kind": "var", "name": "X", "max_tokens": true}]}',
        '{"name": "s", "chunks": [{"kind": "var", "name": "X", "constraint": {}}]}',
        '{"name": "s", "chunks": [{"kind": "var", "name": "X",'
        ' "constraint": {"one_of": []}}]}',
        '{"name": "s", "chunks": [{"kind": "var", "name": "X",'
        ' "constraint": {"one_of": ["a", "a"]}}]}',
        '{"name": "s", "chunks": [{"kind": "var", "name": "X"},'
        ' {"kind": "var", "name": "X"}]}',
        '{"name": "s", "chunks": [{"kind": "var", "name": "X"},'
        ' {"kind": "det", "text": "-"}, {"kind": "var", "name": "X"}]}',
    ],
)
def test_parse_rejects_malformed_documents(doc):
    with pytest.raises(SketchSyntaxError):
        parse_sketch(doc)


def test_empty_deterministic_chunk_rejected():
    with pytest.raises(EmptyDeterministicChunk):
        parse_sketch('{"name": "s", "chunks": [{"kind": "det", "text": ""}]}')
    with pytest.raises(EmptyDeterministicChunk):
        Chunk.det("")


def test_adjacent_same_name_variables_rejected():
    with pytest.raises(DuplicateAdjacentVariable):
        Sketch(
            name="s",
            chunks=(
                Chunk.variable(VariableSpec("X")),
                Chunk.variable(VariableSpec("X")),
            ),
        )


def test_adjacent_distinct_variables_allowed():
    sketch = Sketch(
        name="s",
        chunks=(
            Chunk.variable(VariableSpec("X")),
            Chunk.variable(VariableSpec("Y")),
        ),
    )
    assert len(sketch.variables) == 2


def test_round_trip_random_sketches():
    for seed in range(40):
        sketch = random_sketch(random.Random(seed))
        assert parse_sketch(serialize_sketch(sketch)) == sketch


def test_one_of_validation():
    with pytest.raises(ValueError):
        OneOf(())
    with pytest.raises(ValueError):
        OneOf(("a", ""))
    with pytest.raises(ValueError):
        OneOf(("a", "a"))
    assert OneOf(("b", "a")).members == ("a", "b")


def test_equal_one_of_sets_share_one_tuple():
    """OneOf sets equal up to order, built apart, share one index, on which
    the decoders' OneOf index keys, and its members tuple; distinct sets do
    not."""
    ba, ab, ac = OneOf(("b", "a")), OneOf(["a", "b"]), OneOf(("a", "c"))
    assert ba.index is ab.index and ba.members is ab.members is ab.index.members
    assert ac.index is not ab.index and ac.members is not ab.members
    assert ba == ab and ba != ac and hash(ba) == hash(ab)
    assert repr(ab) == "OneOf(members=('a', 'b'))"


def test_copied_and_unpickled_one_of_sets_share_the_index():
    """A deep copy or an unpickled OneOf equals its original and shares its
    index and members tuple, as a set built anew would; so does a sketch
    that holds one."""
    members = OneOf(("b", "a", "c"))
    spec = VariableSpec("X", one_of=members, max_tokens=2)
    sketch = Sketch(name="s", chunks=(Chunk.det("x"), Chunk.variable(spec)))
    for copied in (copy.deepcopy(sketch), pickle.loads(pickle.dumps(sketch))):
        assert copied == sketch
        one_of = copied.chunks[1].var.one_of
        assert one_of.index is members.index and one_of.members is members.members
    for copied in (copy.deepcopy(members), pickle.loads(pickle.dumps(members))):
        assert copied == members and copied.index is members.index


def test_a_one_of_set_lives_while_a_one_of_holds_it():
    """A member set's index is kept only while a OneOf holds it: once the
    last one goes, an equal set built later gets an index of its own."""
    members = tuple(f"held-{i}" for i in range(3))
    first = OneOf(members)
    ref = weakref.ref(first.index)
    assert sketch_module._INDEXES[first.members] is first.index
    assert OneOf(members[::-1]).index is ref()
    del first
    gc.collect()
    assert ref() is None and members not in sketch_module._INDEXES


def test_variable_spec_validation():
    with pytest.raises(ValueError):
        VariableSpec("not an identifier")
    with pytest.raises(ValueError):
        VariableSpec("X", stop_phrases=("",))
    with pytest.raises(ValueError):
        VariableSpec("X", max_tokens=0)


def test_instantiate_substitutes_values():
    sketch = parse_sketch(LIST4_DOC)
    text = instantiate(sketch, {"ITEM1": "Camera\n", "ITEM3": "Snacks\n"})
    assert text == "- Camera\n- Frisbee\n- Snacks\n"


def test_instantiate_missing_binding():
    sketch = parse_sketch(LIST4_DOC)
    with pytest.raises(MissingBinding):
        instantiate(sketch, {"ITEM1": "Camera\n"})


def test_instantiate_accepts_empty_values():
    sketch = parse_sketch(LIST4_DOC)
    assert instantiate(sketch, {"ITEM1": "", "ITEM3": ""}) == "- - Frisbee\n- "


def test_bindings_collection():
    b = Bindings.from_values({"A": "1", "B": "2"})
    assert b.value("A") == "1"
    assert b.as_dict() == {"A": "1", "B": "2"}
    assert "A" in b and "C" not in b
    assert [x.name for x in b] == ["A", "B"]
    assert len(b) == 2
    with pytest.raises(MissingBinding):
        b.value("C")
    with pytest.raises(ValueError):
        Bindings((Binding("A", "1"), Binding("A", "2")))


def test_static_source_pending_runs():
    sketch = parse_sketch(LIST4_DOC)
    source = StaticSketchSource(sketch)
    first = source.pending({})
    assert [c.kind for c in first] == ["det", "var"]
    assert first[1].var.name == "ITEM1"
    bound = {"ITEM1": "Camera\n"}
    second = source.pending(bound)
    assert second[1].var.name == "ITEM3"
    done = {"ITEM1": "Camera\n", "ITEM3": "Snacks\n"}
    assert source.pending(done) == ()


def test_static_source_trailing_det_run():
    sketch = parse_sketch(
        '{"name": "s", "chunks": [{"kind": "var", "name": "X"},'
        ' {"kind": "det", "text": "tail"}]}'
    )
    source = StaticSketchSource(sketch)
    run = source.pending({"X": "v"})
    assert [c.kind for c in run] == ["det"]
    assert run[0].text == "tail"


def walked_run(sketch: Sketch, bound: dict[str, str]) -> tuple[Chunk, ...]:
    """Reference: walk the chunks past ``len(bound)`` variables, then take
    chunks up to and including the next variable."""
    chunks, idx, seen = sketch.chunks, 0, 0
    while idx < len(chunks) and seen < len(bound):
        seen += chunks[idx].is_var
        idx += 1
    run = []
    while idx < len(chunks):
        run.append(chunks[idx])
        if chunks[idx].is_var:
            break
        idx += 1
    return tuple(run)


@settings(max_examples=200, deadline=None)
@given(
    layout=st.lists(st.booleans(), min_size=1, max_size=10).filter(any),
)
def test_static_source_runs_equal_the_chunk_walk(layout):
    """For every bound-variable count from 0 to one past the last
    variable, the runs cut at construction equal a walk of the chunks
    (leading, adjacent and trailing deterministic chunks, adjacent
    variables)."""
    chunks, names = [], []
    for i, is_var in enumerate(layout):
        if is_var:
            names.append(f"V{i}")
            chunks.append(Chunk.variable(VariableSpec(names[-1])))
        else:
            chunks.append(Chunk.det(f"d{i}"))
    sketch = Sketch(name="s", chunks=tuple(chunks))
    source = StaticSketchSource(sketch)
    for k in range(len(names) + 2):
        bound = {n: "v" for n in [*names, "EXTRA"][:k]}
        assert source.pending(bound) == walked_run(sketch, bound), k


def branching_program(values):
    # second variable depends on the first value
    if "A" not in values:
        return [Chunk.det("s:"), Chunk.variable(VariableSpec("A", max_tokens=1))]
    if "B" not in values:
        members = ("x",) if values["A"] == "a" else ("y",)
        return [
            Chunk.variable(
                VariableSpec("B", one_of=OneOf(members), max_tokens=2)
            )
        ]
    return []


def test_dynamic_source_replays_identically():
    source = DynamicSketchSource(branching_program)
    bound = {"A": "a"}
    first = source.pending(bound)
    second = source.pending(bound)
    assert first == second
    assert first[0].var.one_of.members == ("x",)
    other = source.pending({"A": "z"})
    assert other[0].var.one_of.members == ("y",)
    assert source.pending({"A": "a", "B": "x"}) == ()


def test_dynamic_program_faults_become_typed_errors():
    def broken(values):
        raise RuntimeError("boom")

    with pytest.raises(DynamicProgramError):
        DynamicSketchSource(broken).pending({})


def test_dynamic_run_shape_is_validated():
    bad_element = DynamicSketchSource(lambda v: ["not a chunk"])
    with pytest.raises(DynamicProgramError):
        bad_element.pending({})

    var_not_last = DynamicSketchSource(
        lambda v: [
            Chunk.variable(VariableSpec("A")),
            Chunk.det("tail"),
        ]
    )
    with pytest.raises(DynamicProgramError):
        var_not_last.pending({})

    # values are keyed by name, so a bound name cannot open again
    reused = DynamicSketchSource(lambda v: [Chunk.variable(VariableSpec("A"))])
    assert reused.pending({"B": "b"})[0].var.name == "A"
    with pytest.raises(DynamicProgramError, match="variable name 'A' is reused"):
        reused.pending({"A": "a"})


# sketch-shaped documents with any field wrong in any way
_chunk_objects = st.fixed_dictionaries(
    {"kind": or_junk(st.sampled_from(["det", "var"]))},
    optional={
        "text": or_junk(st.text(max_size=4)),
        "name": or_junk(st.sampled_from(["A", "B", "1x", ""])),
        "stop": or_junk(st.lists(st.text(max_size=2), max_size=2)),
        "max_tokens": or_junk(st.integers(-1, 4)),
        "constraint": or_junk(
            st.fixed_dictionaries(
                {"one_of": or_junk(st.lists(st.text(max_size=2), max_size=3))}
            )
        ),
        "extra": json_values,
    },
)
_sketch_objects = st.fixed_dictionaries(
    {
        "name": or_junk(st.sampled_from(["s", ""])),
        "chunks": or_junk(st.lists(_chunk_objects, max_size=4)),
    },
    optional={"extra": json_values},
)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.text(max_size=40),
        json_values.map(json.dumps),
        _sketch_objects.map(json.dumps),
    )
)
def test_parse_sketch_parses_or_raises_a_package_error(document):
    try:
        sketch = parse_sketch(document)
    except SketchdecError:
        return
    assert parse_sketch(serialize_sketch(sketch)) == sketch
