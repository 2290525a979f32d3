"""Packing-list repetition task: greedy repeats, search does not."""
import json
from importlib import resources

import pytest

from sketchdec.decoders import DecoderConfig, decode
from sketchdec.lm import StateTableLM, TableLM, Vocabulary
from sketchdec.sketch import load_sketch
from sketchdec.tasks import fig1


def data_path(name: str) -> str:
    return str(resources.files("sketchdec").joinpath("data", name))


def test_vocab_shape():
    vocab = fig1.fig1_vocab()
    assert len(vocab.tokens) == 9
    assert vocab.eos_index == 0
    assert "Frisbee" in vocab.tokens and "\n" in vocab.tokens


def test_parse_items():
    text = "Things to bring:\n- Camera\n- Frisbee\n- \n- Snacks\n"
    assert fig1.parse_items(text) == ["Camera", "Frisbee", "Snacks"]
    assert fig1.parse_items("no dashes here") == []


def test_has_duplicate():
    assert fig1.has_duplicate(["a", "b", "a"])
    assert not fig1.has_duplicate(["a", "b"])
    assert not fig1.has_duplicate([])


def test_greedy_repeats_search_does_not():
    rows = {r.decoder: r for r in fig1.run_fig1_task()}
    assert rows["argmax"].duplicate
    assert rows["argmax"].items == ("Frisbee", "Frisbee", "Camera", "Snorkeling gear")
    for kind in ("var", "beamvar"):
        assert not rows[kind].duplicate
        assert rows[kind].items == (
            "Camera",
            "Frisbee",
            "Snorkeling gear",
            "Hammock",
        )
        assert rows[kind].normalized_score > rows["argmax"].normalized_score


def test_frozen_task_scores():
    rows = {r.decoder: r for r in fig1.run_fig1_task()}
    assert rows["argmax"].normalized_score == pytest.approx(-2.828701, abs=1e-6)
    assert rows["beamvar"].normalized_score == pytest.approx(-0.597042, abs=1e-6)
    assert rows["var"].raw_score == rows["beamvar"].raw_score


def test_bundled_sketch_matches_builder():
    assert load_sketch(data_path("list4.json")) == fig1.list4_sketch()


def test_bundled_table_matches_virtual_backend():
    concrete = TableLM.from_file(data_path("fig1_table.json"))
    virtual = fig1.fig1_backend()
    sketch = fig1.fig1_sketch()
    for kind, width in (("argmax", 1), ("beam", 2), ("var", 2), ("beamvar", 2)):
        config = DecoderConfig(kind=kind, width=width)
        a = decode(sketch, concrete, config)
        b = decode(sketch, virtual, config)
        assert a.best.tokens == b.best.tokens, kind
        assert a.best.raw_score == pytest.approx(b.best.raw_score, abs=1e-12)


class _RecordingRows:
    """Row callable that remembers every context it was asked about."""

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self.seen: dict[str, list[float]] = {}

    def __call__(self, prefix: str) -> list[float]:
        row = fig1._row(self.vocab, prefix)
        self.seen[prefix] = row
        return row


def materialize_table() -> dict:
    """Dump the fig1 model's rows as a concrete JSON table file payload.

    Runs every supported decoder over both bundled sketches so the
    recorded contexts cover the prefixes those decodes visit; unseen
    contexts fall back to the default row.  ``fig1_table.json`` is this
    payload.
    """
    vocab = fig1.fig1_vocab()
    uniform = [1.0 / len(vocab.tokens)] * len(vocab.tokens)
    recorder = _RecordingRows(vocab)
    backend = StateTableLM(vocab, lambda text: text, recorder)
    for sketch in (fig1.fig1_sketch(), fig1.list4_sketch()):
        for kind, widths in (
            ("argmax", (1,)),
            ("beam", (1, 2, 3)),
            ("var", (1, 2, 3)),
            ("beamvar", (1, 2, 3)),
        ):
            for w in widths:
                decode(sketch, backend, DecoderConfig(kind=kind, width=w))
    return {
        "vocab": list(vocab.tokens),
        "eos": vocab.eos_index,
        "contexts": {k: recorder.seen[k] for k in sorted(recorder.seen)},
        "default": uniform,
    }


def test_materialized_table_payload():
    payload = materialize_table()
    assert set(payload) == {"vocab", "eos", "contexts", "default"}
    assert payload["vocab"] == list(fig1.fig1_vocab().tokens)
    for row in payload["contexts"].values():
        assert len(row) == 9
        assert sum(row) == pytest.approx(1.0, abs=1e-9)
    with open(data_path("fig1_table.json"), encoding="utf-8") as f:
        bundled = json.load(f)
    assert bundled == payload
