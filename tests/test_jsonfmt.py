"""JSON extraction task: templates make validity structural."""
import json

import pytest

from sketchdec.constraints import MaskState, compute_mask
from sketchdec.decoders import DecoderConfig, decode, decode_argmax
from sketchdec.lm import TableLM, Vocabulary
from sketchdec.sketch import Chunk, Sketch, VariableSpec, instantiate
from sketchdec.tasks import jsonfmt


def test_extract_json_accepts_only_the_schema():
    good = 'Text: x JSON: {"name": "Maya", "age": 31, "city": "Lisbon"}'
    assert jsonfmt.extract_json(good) == {"name": "Maya", "age": 31, "city": "Lisbon"}
    bad = (
        "no marker at all",
        'Text: x JSON: {"name": "Maya"}',  # missing keys
        'Text: x JSON: {"name": "Maya", "age": "31", "city": "L"}',  # age not int
        'Text: x JSON: {"name": "", "age": 31, "city": "L"}',  # empty name
        'Text: x JSON: {"name": "M", "age": 200, "city": "L"}',  # age range
        'Text: x JSON: ["name"]',  # not an object
        'Text: x JSON: {"name": "M", "age": 31, "city": "L"',  # unterminated
    )
    for text in bad:
        assert jsonfmt.extract_json(text) is None, text


def test_sketch_carries_all_syntax_deterministically():
    sketch = jsonfmt.build_sketch(jsonfmt.RECORDS[0])
    kinds = [c.kind for c in sketch.chunks]
    assert kinds == ["det", "var", "det", "var", "det", "var", "det"]
    names = [c.var.name for c in sketch.chunks if c.is_var]
    assert names == ["NAME", "AGE", "CITY"]
    det_text = "".join(c.text for c in sketch.chunks if c.is_det)
    for piece in ('{"name": "', '", "age": ', ', "city": "', '"}'):
        assert piece in det_text


def test_field_masks_exclude_non_members():
    vocab = jsonfmt.json_vocab()
    sketch = jsonfmt.build_sketch(jsonfmt.RECORDS[0])
    name_spec = sketch.chunks[1].var
    mask = compute_mask(MaskState().start(name_spec), vocab)
    texts = {vocab.token_text(i) for i in mask}
    assert texts <= set(jsonfmt.NAMES)  # no digits, no syntax, no EOS yet


def test_record_backend_decodes_its_record_exactly():
    for record in jsonfmt.RECORDS[:3]:
        sketch = jsonfmt.build_sketch(record)
        result = decode_argmax(sketch, jsonfmt.record_backend(record))
        obj = jsonfmt.extract_json(result.text)
        assert obj == {"name": record.name, "age": record.age, "city": record.city}


def test_ngram_backend_is_valid_but_wrong():
    report = jsonfmt.run_json_task(backend_kind="ngram")
    assert report.valid == 10
    assert report.correct == 0
    assert report.mean_baseline_tokens is None


def test_table_report_numbers():
    report = jsonfmt.run_json_task()
    assert (report.valid, report.correct, report.total) == (10, 10, 10)
    assert report.mean_decoded_tokens == pytest.approx(4.3)
    assert report.mean_baseline_tokens == pytest.approx(40.0)
    # the whole point: far fewer decoded tokens than the chatty baseline
    assert report.mean_decoded_tokens < report.mean_baseline_tokens / 4


def test_any_backend_yields_schema_conformant_output():
    # adversarial: uniform rows know nothing about the task
    from sketchdec.lm import TableLM

    vocab = jsonfmt.json_vocab()
    uniform = [1.0 / len(vocab.tokens)] * len(vocab.tokens)
    clueless = TableLM(vocab, {}, default_row=uniform)
    for record in jsonfmt.RECORDS[:3]:
        sketch = jsonfmt.build_sketch(record)
        result = decode(sketch, clueless, DecoderConfig(kind="beamvar", width=2))
        assert jsonfmt.extract_json(result.text) is not None


def empty_field_fixture() -> tuple[Sketch, TableLM]:
    """Free-text field whose backend ends it immediately: quoted empty value."""
    vocab = Vocabulary(tokens=("", "a", "b", '{"note": "', '"}'), eos_index=0)
    sketch = Sketch(
        name="json-empty",
        chunks=(
            Chunk.det('{"note": "'),
            Chunk.variable(VariableSpec(name="NOTE", max_tokens=4)),
            Chunk.det('"}'),
        ),
    )
    eos_heavy = [0.96, 0.01, 0.01, 0.01, 0.01]
    backend = TableLM(vocab, {}, default_row=eos_heavy)
    return sketch, backend


def test_empty_field_still_renders_closed_quotes():
    sketch, backend = empty_field_fixture()
    result = decode_argmax(sketch, backend)
    assert result.text == '{"note": ""}'
    assert json.loads(result.text) == {"note": ""}
    assert result.bindings.value("NOTE") == ""


def test_free_run_baseline_is_verbose():
    record = jsonfmt.RECORDS[0]
    backend = jsonfmt.record_backend(record)
    prompt = jsonfmt.PROMPT_PREFIX + record.narrative + jsonfmt.BASELINE_REQUEST
    assert jsonfmt.free_run_tokens(backend, prompt) == 40


def test_rendered_text_equals_instantiate():
    record = jsonfmt.RECORDS[4]
    sketch = jsonfmt.build_sketch(record)
    result = decode_argmax(sketch, jsonfmt.record_backend(record))
    assert result.text == instantiate(sketch, result.bindings)
