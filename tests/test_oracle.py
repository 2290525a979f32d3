"""Exhaustive reference decoder against hand-counted path spaces."""
import math

import pytest

from conftest import small_oracle_fixture
from sketchdec.decoders import decode_var
from sketchdec.errors import InstanceTooLarge, TemplateUnsatisfiable
from sketchdec.lm import TableLM, Vocabulary
from sketchdec.oracle import enumerate_completions, oracle_decode
from sketchdec.scoring import ScoreParams
from sketchdec.sketch import Chunk, OneOf, Sketch, VariableSpec


def one_var(spec: VariableSpec, *, lead: str = "") -> Sketch:
    chunks = (Chunk.det(lead),) if lead else ()
    return Sketch(name="s", chunks=chunks + (Chunk.variable(spec),))


def test_hand_count_one_of_paths():
    vocab = Vocabulary(("", "a", "b"), eos_index=0)
    backend = TableLM(vocab, {}, default_row=[1 / 3] * 3)
    sketch = one_var(VariableSpec("X", one_of=OneOf(("a", "ab")), max_tokens=3))
    comps = enumerate_completions(sketch, backend)
    # "a" then EOS, or "a" then "b" (closes without EOS: no member extends it)
    assert sorted(comps) == [(1, 0), (1, 2)]


def test_hand_count_unconstrained_paths():
    vocab = Vocabulary(("", "a", "x"), eos_index=0)
    backend = TableLM(vocab, {}, default_row=[1 / 3] * 3)
    sketch = one_var(VariableSpec("X", stop_phrases=("x",), max_tokens=2))
    comps = enumerate_completions(sketch, backend)
    assert sorted(comps) == [
        (0,),  # immediate EOS: empty value
        (1, 0),
        (1, 1),  # token budget reached
        (1, 2),  # stop phrase
        (2,),
    ]


def test_leading_det_tokens_counted_separately():
    vocab = Vocabulary(("", "a", "b"), eos_index=0)
    backend = TableLM(vocab, {}, default_row=[1 / 3] * 3)
    sketch = one_var(
        VariableSpec("X", one_of=OneOf(("b",)), max_tokens=2), lead="a"
    )
    comps = enumerate_completions(sketch, backend)
    # the forced "a" leads the variable's "b"
    assert comps == [(1, 2)]


def test_cap_raises():
    vocab = Vocabulary(("", "a", "x"), eos_index=0)
    backend = TableLM(vocab, {}, default_row=[1 / 3] * 3)
    sketch = one_var(VariableSpec("X", stop_phrases=("x",), max_tokens=2))
    with pytest.raises(InstanceTooLarge):
        enumerate_completions(sketch, backend, cap=3)


def test_unsatisfiable_template():
    vocab = Vocabulary(("", "a"), eos_index=0)
    backend = TableLM(vocab, {}, default_row=[0.5, 0.5])
    sketch = one_var(VariableSpec("X", one_of=OneOf(("zz",)), max_tokens=2))
    with pytest.raises(TemplateUnsatisfiable):
        oracle_decode(sketch, backend)


def test_uniform_tie_breaks_on_token_indices():
    vocab = Vocabulary(("", "a", "b"), eos_index=0)
    backend = TableLM(vocab, {}, default_row=[1 / 3] * 3)
    sketch = one_var(VariableSpec("X", one_of=OneOf(("ab", "ba")), max_tokens=2))
    res = oracle_decode(sketch, backend)
    assert res.tokens == (1, 2)
    assert res.completion_count == 2
    engine = decode_var(sketch, backend, width=2, proposal="exhaustive")
    assert engine.best.tokens == (1, 2)


def test_normalization_parameters_flip_the_winner():
    vocab = Vocabulary(("", "a", "b"), eos_index=0)
    rows = {"": [0.15, 0.4, 0.45], "a": [0.15, 0.75, 0.10]}
    backend = TableLM(vocab, rows, default_row=[1 / 3] * 3)
    sketch = one_var(VariableSpec("X", one_of=OneOf(("aa", "b")), max_tokens=2))
    raw_rank = ScoreParams(alpha=0.0)
    mean_rank = ScoreParams(alpha=1.0, beta=0.0)
    # raw: P(b)=0.45 beats P(aa)=0.30; per-token mean prefers the longer value
    assert oracle_decode(sketch, backend, score=raw_rank).tokens == (2,)
    assert oracle_decode(sketch, backend, score=mean_rank).tokens == (1, 1)
    for score, want in ((raw_rank, (2,)), (mean_rank, (1, 1))):
        from sketchdec.decoders import DecoderConfig, VAR

        res = decode_var(
            sketch, backend, width=4, proposal="exhaustive", score=score
        )
        assert res.best.tokens == want


def test_raw_score_is_forced_rescore():
    vocab = Vocabulary(("", "a", "b"), eos_index=0)
    rows = {"": [0.2, 0.5, 0.3], "a": [0.6, 0.2, 0.2]}
    backend = TableLM(vocab, rows, default_row=[1 / 3] * 3)
    sketch = one_var(VariableSpec("X", one_of=OneOf(("a",)), max_tokens=2))
    res = oracle_decode(sketch, backend)
    # the sole member closes as soon as it is spelled: no EOS token
    assert res.tokens == (1,)
    assert res.raw_score == pytest.approx(math.log(0.5))


def test_agrees_with_exhaustive_search_spot():
    for seed in (101, 102, 103):
        sketch, backend = small_oracle_fixture(seed)
        comps = enumerate_completions(sketch, backend)
        res = oracle_decode(sketch, backend)
        assert res.completion_count == len(comps)
        engine = decode_var(
            sketch, backend, width=len(comps), proposal="exhaustive"
        )
        got = engine.best.normalized_score(ScoreParams())
        assert got == pytest.approx(res.normalized_score, abs=1e-9)
