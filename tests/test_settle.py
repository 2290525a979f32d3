"""Settling: the engine's settle against the settle it replaced, which
rebuilt the bindings, tokenized every forced chunk and started every
variable's mask state anew for each hypothesis; and the work a decode does
there."""
import dataclasses
from collections import Counter

import pytest

from conftest import random_backend, random_fixture
from sketchdec import decoders
from sketchdec.constraints import MaskState
from sketchdec.decoders import (
    ARGMAX,
    BEAMVAR,
    DecoderConfig,
    _Engine,
    decode,
    default_token_cap,
)
from sketchdec.errors import (
    DynamicProgramError,
    ForcedTextMisaligned,
    TemplateUnsatisfiable,
)
from sketchdec.lm import ordered_sum
from sketchdec.scoring import Hypothesis
from sketchdec.sketch import (
    Chunk,
    DynamicSketchSource,
    OneOf,
    StaticSketchSource,
    VariableSpec,
)
from sketchdec.tasks import dungeon, fig1
from test_decoders import TopK, _result_fingerprint, decoder_configs


class ReferenceEngine(_Engine):
    """The engine with its old settle: the run is asked for with the
    hypothesis's ``Bindings`` and checked again, each forced chunk is
    tokenized by the backend, and each opened variable gets a new
    ``MaskState.start``."""

    def settle(self, h):
        if h.done or h.open_spec is not None:
            return h
        run = self.source.pending(h.bindings.as_dict())
        for i, c in enumerate(run):
            if not isinstance(c, Chunk):
                raise DynamicProgramError(f"run element {i} is not a Chunk: {c!r}")
            if c.is_var and i != len(run) - 1:
                raise DynamicProgramError(
                    "variable chunk must be the last element of a pending run"
                )
        if not run:
            return self._mark_done(h)
        det_chunks = [c for c in run if c.is_det]
        var_chunk = run[-1] if run[-1].is_var else None
        if det_chunks:
            for c in det_chunks:
                toks = self.backend.tokenize(c.text)
                try:
                    lps = self.backend.score_forced(h.tokens, toks, text=h.text)
                except ForcedTextMisaligned:
                    return None
                h = h.with_forced_span(toks, lps, c.text)
            if self.recorder is not None:
                nid = self.recorder.add(
                    h.node_id,
                    "".join(c.text for c in det_chunks),
                    ordered_sum(s.raw_logprob for s in h.spans[-len(det_chunks) :]),
                    h.normalized_score(self.score),
                    h.vars_done,
                    "forced",
                )
                h = h.with_node(nid)
            if h.m_total > self.cap:
                self.truncated += 1
                return None
        if var_chunk is not None:
            spec = var_chunk.var
            return h.with_open_variable(spec, MaskState.start(spec))
        return self._mark_done(h)


FIELDS = (
    "tokens",
    "text",
    "logprobs",
    "spans",
    "raw_score",
    "vars_done",
    "open_spec",
    "open_state",
    "done",
    "node_id",
)


def hyp_fields(h: Hypothesis) -> tuple:
    """Every field of h, floats by their bits and a mask state by its
    value (two starts of one spec hold equal members in distinct indexes)."""
    state = h.open_state
    return (
        h.tokens,
        h.text,
        tuple(lp.hex() for lp in h.logprobs),
        tuple(
            (s.kind, s.name, s.text, s.start, s.end, s.raw_logprob.hex())
            for s in h.spans
        ),
        h.raw_score.hex(),
        h.vars_done,
        h.open_spec,
        None
        if state is None
        else (
            state.partial_value,
            state.tokens_emitted,
            None if state.index is None else state.index.members,
        ),
        h.done,
        h.node_id,
    )


def settled(engine, source, backend, config: DecoderConfig, monkeypatch):
    """Every settle's result in one decode on engine, a subclass of
    ``_Engine``, then the decode's result and tree."""
    log = []

    class Logged(engine):
        def settle(self, h):
            out = super().settle(h)
            log.append(None if out is None else hyp_fields(out))
            return out

    with monkeypatch.context() as m:
        m.setattr(decoders, "_Engine", Logged)
        try:
            r = decode(source, backend, config)
        except TemplateUnsatisfiable:
            return log, "unsatisfiable"
    return log, (_result_fingerprint(r), r.tree and r.tree.to_ndjson())


def fresh_spec_source() -> DynamicSketchSource:
    """A program that builds new specs and OneOf sets on every call, so the
    spec ids it hands out are freed and may be reused; each OneOf depends
    on the value before it."""

    def program(values):
        n = len(values)
        if n == 4:
            return [Chunk.det("d")]
        if n % 2:
            spec = VariableSpec(f"V{n}", stop_phrases=("d",), max_tokens=3)
        else:
            last = values.get(f"V{n - 1}") or "cd"
            members = tuple(sorted({"a", "ab", last}))
            spec = VariableSpec(f"V{n}", one_of=OneOf(members), max_tokens=len(last) + 1)
        return [Chunk.det("bc"[n % 2]), Chunk.variable(spec)]

    return DynamicSketchSource(program)


def mutating_source(sketch) -> DynamicSketchSource:
    """The sketch's runs from a program that then empties the dict it got
    and binds a name of its own in it."""
    static = StaticSketchSource(sketch)

    def program(values):
        run = static.pending(values)
        values.clear()
        values["JUNK"] = "x"
        return run

    return DynamicSketchSource(program)


def differential_cases():
    """(label, source, backend, extra config) for the settle comparison."""
    for seed in range(6):
        sketch, backend = random_fixture(seed)
        cap = default_token_cap(StaticSketchSource(sketch), backend.tokenize)
        yield f"random-{seed}", sketch, backend, {}
        yield f"random-{seed}-cap", sketch, backend, {"global_max_tokens": cap - 1}
        yield f"random-{seed}-cap3", sketch, backend, {"global_max_tokens": 3}
        yield f"random-{seed}-topk", sketch, TopK(backend, 2), {}
        yield f"mutating-{seed}", mutating_source(sketch), backend, {}
    for i, instance in enumerate(dungeon.suite(0)):
        backend = dungeon.dungeon_backend(instance)
        yield f"dungeon-{i}", dungeon.dungeon_source(instance), backend, {}
    for seed in range(4):
        yield f"fresh-{seed}", fresh_spec_source(), random_backend(seed), {}


def test_the_reference_compares_every_field():
    assert tuple(f.name for f in dataclasses.fields(Hypothesis)) == FIELDS


@pytest.mark.parametrize("record_tree", [False, True], ids=["untraced", "traced"])
def test_settle_equals_the_reference(record_tree, monkeypatch):
    """Each decode settles the same hypotheses, field by field and float
    bit by float bit, in the same order, and ends in the same result and
    tree, as on the reference engine."""
    for label, source, backend, extra in differential_cases():
        for name, config in decoder_configs(widths=(1, 2)):
            config = DecoderConfig(record_tree=record_tree, **config, **extra)
            want = settled(ReferenceEngine, source, backend, config, monkeypatch)
            got = settled(_Engine, source, backend, config, monkeypatch)
            assert want[0], (label, name)
            assert got == want, (label, name)


class WorkCounts:
    """Per decode: the texts the backend tokenizes, and the values each
    settle asks the source with, beside the bindings of the hypothesis
    settled."""

    def __init__(self, source, backend, monkeypatch):
        self.tokenized, self.asked, self.bound = Counter(), [], []
        tokenize, pending, settle = backend.tokenize, source.pending, _Engine.settle

        def counted_tokenize(text):
            self.tokenized[text] += 1
            return tokenize(text)

        def counted_pending(values):
            self.asked.append((type(values), dict(values)))
            return pending(values)

        def counted_settle(eng, h):
            if not (h.done or h.open_spec is not None):
                self.bound.append((dict, h.bindings.as_dict()))
            return settle(eng, h)

        monkeypatch.setattr(backend, "tokenize", counted_tokenize)
        monkeypatch.setattr(source, "pending", counted_pending)
        monkeypatch.setattr(_Engine, "settle", counted_settle)


def test_a_static_decode_tokenizes_each_forced_text_once(monkeypatch):
    for seed in range(8):
        sketch, backend = random_fixture(seed)
        texts = {c.text for c in sketch.chunks if c.is_det}
        for name, config in decoder_configs(widths=(1, 2)):
            source = StaticSketchSource(sketch)
            with monkeypatch.context() as m:
                counts = WorkCounts(source, backend, m)
                try:
                    decode(source, backend, DecoderConfig(**config))
                except TemplateUnsatisfiable:
                    pass
            # the token cap tokenizes every deterministic chunk first
            assert counts.tokenized == Counter(texts), (seed, name)
            assert counts.asked == counts.bound, (seed, name)


@pytest.mark.parametrize(
    "make",
    [
        lambda: (fresh_spec_source(), random_backend(1)),
        lambda: (
            dungeon.dungeon_source(dungeon.suite(0)[7]),
            dungeon.dungeon_backend(dungeon.suite(0)[7]),
        ),
    ],
    ids=["fresh-specs", "dungeon"],
)
def test_a_dynamic_decode_tokenizes_each_forced_text_once(make, monkeypatch):
    for name, config in decoder_configs(widths=(1, 2)):
        source, backend = make()
        with monkeypatch.context() as m:
            counts = WorkCounts(source, backend, m)
            decode(source, backend, DecoderConfig(**config))
        assert counts.tokenized and max(counts.tokenized.values()) == 1, name
        assert counts.asked == counts.bound, name


@pytest.mark.parametrize("kind", [ARGMAX, BEAMVAR])
def test_a_program_that_opens_a_bound_name_again_is_a_program_error(kind):
    calls = []

    def program(values):
        calls.append(values)
        if len(calls) <= 3:
            spec = VariableSpec(name="X", max_tokens=3)
            return [Chunk.det("Snacks"), Chunk.variable(spec)]
        return []

    config = DecoderConfig(kind=kind, width=1 if kind == ARGMAX else 2)
    with pytest.raises(DynamicProgramError, match="variable name 'X' is reused"):
        decode(DynamicSketchSource(program), fig1.fig1_backend(), config)

