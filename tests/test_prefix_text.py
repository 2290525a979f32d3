"""The text each hypothesis carries equals the backend's rendering of its
tokens, on every backend and decoder, so a backend reading the carried
text sees the prefix the join would give it."""
import contextlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_backend, random_sketch
from mock_openai import MockCompletionsServer
from sketchdec.decoders import DecoderConfig, decode
from sketchdec.errors import TemplateUnsatisfiable
from sketchdec.lm import NGramLM, TableLM, Vocabulary
from sketchdec.remote import RemoteCompletionsLM
from sketchdec.scoring import Hypothesis
from sketchdec.sketch import Chunk, OneOf, Sketch, VariableSpec

CONFIGS = [
    {"kind": "argmax", "width": 1},
    {"kind": "beam", "width": 2},
    {"kind": "beamvar", "width": 2},
    {"kind": "var", "width": 2, "proposal": "branch"},
    {"kind": "var", "width": 2, "proposal": "sample"},
    {"kind": "var", "width": 2, "proposal": "exhaustive"},
]
# a non-empty EOS rendering: the table model spells it in the prefix text,
# the remote backend leaves it out
EOS_RENDERINGS = ("", "$")


@contextlib.contextmanager
def recorded_hypotheses():
    """Every Hypothesis built inside the block, in build order."""
    built = []
    init = Hypothesis.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    Hypothesis.__init__ = recording
    try:
        yield built
    finally:
        Hypothesis.__init__ = init


def checked(backend):
    """The backend, its scoring methods asserting that every ``text`` they
    are handed is the join of the prefix."""
    for name in ("next_distribution", "score_forced"):
        method = getattr(backend, name)

        def call(prefix, *rest, text=None, _method=method):
            assert text == backend.detokenize(prefix)
            return _method(prefix, *rest, text=text)

        setattr(backend, name, call)
    return backend


def assert_texts_carried(sketch, backend, config) -> list[Hypothesis]:
    """Decode under every config; each hypothesis built has the text its
    tokens render to.  Returns the hypotheses."""
    with recorded_hypotheses() as built:
        try:
            decode(sketch, checked(backend), DecoderConfig(**config))
        except TemplateUnsatisfiable:
            pass
    assert built
    for h in built:
        assert h.text == backend.detokenize(h.tokens)
    return built


def ngram_over(table: TableLM, seed: int) -> NGramLM:
    rng = random.Random(seed)
    corpus = [rng.randrange(len(table.vocab)) for _ in range(rng.randint(0, 30))]
    return NGramLM(table.vocab, 1 + seed % 3, corpus)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    eos=st.sampled_from(EOS_RENDERINGS),
    ngram=st.booleans(),
    config=st.sampled_from(CONFIGS),
    cap=st.one_of(st.none(), st.integers(1, 12)),
)
def test_carried_text_equals_detokenized_tokens(seed, eos, ngram, config, cap):
    sketch = random_sketch(random.Random(seed))
    backend = random_backend(seed, eos=eos)
    if ngram:
        backend = ngram_over(backend, seed)
    assert_texts_carried(sketch, backend, dict(config, global_max_tokens=cap))


def remote_over(server, eos: str) -> RemoteCompletionsLM:
    return RemoteCompletionsLM(
        server.base_url, "mock-model", api_key="k", eos_text=eos, backoff_base=0.001
    )


@pytest.mark.parametrize("eos", EOS_RENDERINGS)
@pytest.mark.parametrize("seed", [3, 11])
def test_carried_text_over_remote(seed, eos):
    sketch = random_sketch(random.Random(seed))
    # no multi-letter tokens: the service would merge a forced chunk's first
    # letter into the token before it, which echo scoring rejects
    table = random_backend(seed, merges=(), eos=eos)
    with MockCompletionsServer(table) as server:
        for config in CONFIGS:
            assert_texts_carried(sketch, remote_over(server, eos), config)


def eos_first_fixture() -> tuple[Sketch, TableLM]:
    """A free variable whose likeliest first token is EOS, between forced
    chunks, so most hypotheses hold EOS inside their prefix."""
    vocab = Vocabulary(("$", "a", "b"), eos_index=0)
    sketch = Sketch(
        "s",
        (
            Chunk.det("a"),
            Chunk.variable(VariableSpec("X", max_tokens=3)),
            Chunk.det("b"),
            Chunk.variable(VariableSpec("Y", one_of=OneOf(("a", "ab")), max_tokens=3)),
            Chunk.det("ab"),
        ),
    )
    return sketch, TableLM(vocab, {}, default_row=[0.4, 0.3, 0.3])


def eos_inside(h: Hypothesis) -> bool:
    return 0 in h.tokens[:-1]


@pytest.mark.parametrize("config", CONFIGS)
def test_eos_inside_the_prefix_is_rendered_by_the_backend(config):
    sketch, table = eos_first_fixture()
    built = assert_texts_carried(sketch, table, config)
    assert any(eos_inside(h) and "$" in h.text for h in built)
    with MockCompletionsServer(eos_first_fixture()[1]) as server:
        built = assert_texts_carried(sketch, remote_over(server, "$"), config)
    assert any(eos_inside(h) for h in built)
    assert all("$" not in h.text for h in built)


@pytest.mark.parametrize("eos", EOS_RENDERINGS)
@given(text=st.text("abcd", max_size=12))
def test_forced_text_round_trips_on_local_backends(eos, text):
    table = random_backend(0, eos=eos)
    for backend in (table, ngram_over(table, 0)):
        assert backend.detokenize(backend.tokenize(text)) == text


@pytest.mark.parametrize("eos", EOS_RENDERINGS)
def test_forced_text_round_trips_over_remote(eos):
    rng = random.Random(5)
    texts = [
        "".join(rng.choice("abcd") for _ in range(rng.randint(1, 9)))
        for _ in range(20)
    ]
    with MockCompletionsServer(random_backend(0, eos=eos)) as server:
        backend = remote_over(server, eos)
        for text in texts:
            assert backend.detokenize(backend.tokenize(text)) == text
