"""HTTP completions backend against an in-process mock service."""
import gc
import itertools
import logging
import math
import random
import time
import weakref

import pytest
import requests
from hypothesis import given, settings, strategies as st

from conftest import YieldingDict, random_backend, random_sketch, run_threads
from mock_openai import MockCompletions, MockCompletionsServer
from sketchdec.constraints import MaskState
from sketchdec.decoders import DecoderConfig, _Engine, decode
from sketchdec.errors import (
    BackendUnavailable,
    ContextTooLong,
    ForcedScoringUnsupported,
    ForcedTextMisaligned,
    SketchdecError,
    TemplateUnsatisfiable,
)
from sketchdec.lm import TableLM, Vocabulary
from sketchdec.scoring import Hypothesis
from sketchdec.sketch import Chunk, OneOf, Sketch, StaticSketchSource, VariableSpec
from sketchdec import lm as lm_module
from sketchdec.remote import RemoteCompletionsLM, TokenRegistry
from sketchdec.tasks import fig1

# the discard port: nothing listens there
DEAD_URL = "http://127.0.0.1:9"


def local_table() -> TableLM:
    vocab = Vocabulary(("", "a", "b", "c", "ab"), eos_index=0)
    rows = {
        "": [0.05, 0.30, 0.25, 0.22, 0.18],
        "c": [0.10, 0.40, 0.20, 0.20, 0.10],
    }
    return TableLM(vocab, rows, default_row=[0.05, 0.30, 0.25, 0.22, 0.18])


@pytest.fixture
def server():
    with MockCompletionsServer(local_table()) as s:
        yield s


def remote(server, **kwargs) -> RemoteCompletionsLM:
    kwargs.setdefault("api_key", "test-key")
    kwargs.setdefault("backoff_base", 0.001)
    return RemoteCompletionsLM(server.base_url, "mock-model", **kwargs)


def test_registry_reserves_eos():
    reg = TokenRegistry()
    assert reg.eos_index == 0 and reg.token_text(0) == ""
    assert reg.intern("a") == 1
    assert reg.intern("b") == 2
    assert reg.intern("a") == 1
    assert len(reg) == 3


def test_service_eos_text_maps_to_the_eos_index():
    """A service that spells EOS as ``eos_text`` gets it back as EOS."""
    vocab = Vocabulary(("</s>", "a", "b"), eos_index=0)
    table = TableLM(vocab, {}, default_row=[0.5, 0.3, 0.2])
    with MockCompletionsServer(table) as service:
        lm = remote(service, eos_text="</s>")
        dist = lm.next_distribution([])
    assert dist.entries == (
        (0, math.log(0.5)),
        (1, math.log(0.3)),
        (2, math.log(0.2)),
    )
    assert lm.vocab.eos_index == 0 and lm.vocab.token_text(0) == "</s>"
    assert len(lm.vocab) == 3


def test_caps_and_lazy_construction(server):
    lm = remote(server)
    assert server.requests == []  # constructing makes no calls


@pytest.mark.parametrize(
    "setting",
    [
        {"timeout_s": 0.0},
        {"timeout_s": -0.005},
        {"timeout_s": math.nan},
        {"timeout_s": math.inf},
        {"retries": -1},
        {"retries": 1.5},
        {"retries": True},
    ],
)
def test_bad_timeout_or_retries_is_refused_at_construction(setting):
    with pytest.raises(ValueError, match=next(iter(setting))):
        RemoteCompletionsLM("http://127.0.0.1:9", "m", api_key="k", **setting)


@pytest.mark.parametrize(
    "setting",
    [
        {"top_k": 0},
        {"top_k": -3},
        {"top_k": 2.5},
        {"top_k": True},
        {"backoff_base": -1},
        {"backoff_base": math.nan},
        {"backoff_base": math.inf},
    ],
)
def test_bad_top_k_or_backoff_is_refused_at_construction(server, setting):
    with pytest.raises(ValueError, match=next(iter(setting))):
        remote(server, **setting)
    assert server.requests == []


def test_tokenize_uses_service_segmentation(server):
    # trailing slash on the base url is normalized away
    lm = RemoteCompletionsLM(server.base_url + "/", "mock-model", api_key="k")
    toks = lm.tokenize("cab")
    assert [lm.vocab.token_text(t) for t in toks] == ["c", "ab"]
    assert lm.detokenize(toks) == "cab"
    assert lm.tokenize("") == ()
    before = len(server.requests)
    lm.tokenize("cab")  # cached
    assert len(server.requests) == before


def test_tokenize_cache_is_bounded(server, monkeypatch):
    monkeypatch.setattr(lm_module, "TOKENIZE_MEMO_SIZE", 3)
    lm = remote(server)
    texts = ["cab", "a", "b", "c", "ab"]
    first = [lm.tokenize(t) for t in texts]
    assert list(lm.vocab._tokenized) == ["b", "c", "ab"]  # oldest dropped first
    before = len(server.requests)
    assert lm.tokenize("cab") == first[0]  # evicted: asks again, same ids
    assert len(server.requests) == before + 1
    assert list(lm.vocab._tokenized) == ["c", "ab", "cab"]
    assert lm.tokenize("ab") == first[4]  # still cached
    assert len(server.requests) == before + 1


def test_threads_share_the_tokenize_memo(server, monkeypatch):
    """Three threads tokenizing through one backend, with room for one
    text in its memo so that nearly every call inserts and evicts while
    the others do too, all get the service's tokens."""
    lm = remote(server)
    texts = ["".join(t) for t in itertools.product("abc", repeat=4)]
    want = {text: lm.tokenize(text) for text in texts}
    monkeypatch.setattr(lm_module, "TOKENIZE_MEMO_SIZE", 1)
    monkeypatch.setitem(vars(lm.vocab), "_tokenized", YieldingDict())
    got = {}

    def work(name, order):
        got[name] = {text: lm.tokenize(text) for text in order}

    orders = (texts, texts[::-1], random.Random(0).sample(texts, len(texts)))
    assert run_threads(work, orders) == []
    assert got == {0: want, 1: want, 2: want}


class YieldingGets(dict):
    """A dict that lets other threads run between a ``get`` and whatever
    its caller does with the answer."""

    def get(self, key, default=None):
        value = super().get(key, default)
        time.sleep(0)
        return value


def test_registry_interns_one_text_once_under_threads():
    """Three threads interning the same 300 new texts, each yielding after
    every lookup, get one index per text between them."""
    reg = TokenRegistry()
    reg._by_text = YieldingGets(reg._by_text)
    texts = [f"t{i}" for i in range(300)]
    got = {}

    def work(name, order):
        got[name] = {text: reg.intern(text) for text in order}

    orders = (texts, texts[::-1], random.Random(0).sample(texts, len(texts)))
    assert run_threads(work, orders) == []
    assert len(reg) == 301
    assert got[0] == got[1] == got[2]
    assert sorted(got[0].values()) == list(range(1, 301))


def test_dropped_backends_take_their_registry_and_index_with_them(server):
    """Decodes over fresh remote backends fill each registry's OneOf index;
    once the backends are dropped, no registry is left alive."""
    spec = VariableSpec("X", one_of=OneOf(("ab", "b", "ca")), max_tokens=3)
    sketch = Sketch(name="s", chunks=(Chunk.det("c"), Chunk.variable(spec), Chunk.det("a")))
    refs = []
    for _ in range(4):
        lm = remote(server)
        for kind, width in (("argmax", 1), ("beamvar", 2)):
            decode(sketch, lm, DecoderConfig(kind=kind, width=width))
        assert lm.vocab._one_of and lm.vocab._tokenized
        refs.append(weakref.ref(lm.vocab))
        del lm
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4


def test_next_distribution_matches_local_by_text(server):
    lm = remote(server)
    table = local_table()
    dist = lm.next_distribution(())
    assert not dist.complete
    got = {lm.vocab.token_text(i): lp for i, lp in dist.entries}
    want = {
        table.vocab.token_text(i): lp
        for i, lp in table.next_distribution(()).entries
    }
    assert got == want  # json round-trip preserves the exact floats


def test_forced_scoring_per_token_when_segmentations_agree(server):
    lm = remote(server)
    table = local_table()
    prefix = lm.tokenize("c")
    cont = lm.tokenize("ab")  # one merged service token
    got = lm.score_forced(prefix, cont)
    want = table.score_forced(table.tokenize("c"), table.tokenize("ab"))
    assert got == want


def test_forced_scoring_totals_on_split_mismatch(server):
    lm = remote(server)
    table = local_table()
    prefix = lm.tokenize("c")
    cont = [lm.vocab.intern("a"), lm.vocab.intern("b")]  # service merges "ab"
    got = lm.score_forced(prefix, cont)
    assert len(got) == 2 and got[1] == 0.0
    want = sum(table.score_forced(table.tokenize("c"), table.tokenize("ab")))
    assert got[0] == pytest.approx(want, abs=1e-12)


def test_forced_scoring_rejects_eos(server):
    lm = remote(server)
    before = len(server.requests)
    with pytest.raises(ForcedScoringUnsupported):
        lm.score_forced((), [lm.vocab.eos_index])
    assert len(server.requests) == before  # refused without a request


def test_forced_scoring_rejects_merged_boundary(server):
    lm = remote(server)
    a = lm.vocab.intern("a")
    b = lm.vocab.intern("b")
    # the prompt "ab" comes back as one token: no boundary splits it
    with pytest.raises(ForcedScoringUnsupported):
        lm.score_forced([a], [b])


def test_misaligned_forced_text_is_its_own_error(server):
    lm = remote(server)
    a, b = lm.vocab.intern("a"), lm.vocab.intern("b")
    # "c" + "ab": the echo reproduces the text but no boundary ends the prefix
    with pytest.raises(ForcedTextMisaligned):
        lm.score_forced(lm.tokenize("c") + (a,), [b])
    # the refusals that do not depend on the prefix keep the parent class
    with pytest.raises(ForcedScoringUnsupported) as refused:
        lm.score_forced((), [lm.vocab.eos_index])
    assert not isinstance(refused.value, ForcedTextMisaligned)


def merged_boundary_fixture():
    """A free V0 stopping at "a" before the forced "bd", over a table model
    with an "ab" token: the service merges a value's last "a" with the
    forced "b", so a value ending in "a" cannot be scored."""
    return random_sketch(random.Random(3)), random_backend(3)


def test_settle_kills_only_the_misaligned_hypothesis():
    sketch, table = merged_boundary_fixture()
    with MockCompletionsServer(table) as server:
        lm = remote(server)
        eng = _Engine(StaticSketchSource(sketch), lm, DecoderConfig())
        h = eng.settle(Hypothesis())
        assert h.text == "cd" and h.open_spec.name == "V0"
        (a,), (ab,) = lm.tokenize("a"), lm.tokenize("ab")
        merged = eng.settle(eng.apply_token(h, a, -1.0).hyp)
        # dead without counting a truncation
        assert merged is None and eng.truncated == 0
        scored = eng.settle(eng.apply_token(h, ab, -1.0).hyp)
        assert scored.done and scored.rendered() == "cdabbd"
        assert eng.truncated == 0


def test_decode_goes_on_past_a_misaligned_forced_chunk():
    """Under every decoder, a hypothesis the service cannot align dies like
    a dead end: no decode fails with a forced-scoring error, and beamvar and
    beam at width 2 find a value whose forced text can be scored; beam
    commits it although a value ranked above it died in settle."""
    sketch, table = merged_boundary_fixture()
    configs = [
        {"kind": "argmax", "width": 1},
        {"kind": "var", "width": 2, "proposal": "branch"},
        {"kind": "var", "width": 2, "proposal": "sample"},
        {"kind": "var", "width": 2, "proposal": "exhaustive"},
    ]
    with MockCompletionsServer(table) as server:
        lm = remote(server)
        for kind in ("beamvar", "beam"):
            result = decode(sketch, lm, DecoderConfig(kind=kind, width=2))
            assert result.best.done and result.truncated_count == 0, kind
            value = result.bindings.value("V0")
            assert result.text == f"cd{value}bd" and not value.endswith("a"), kind
        for config in configs:
            try:
                decode(sketch, lm, DecoderConfig(**config))
            except TemplateUnsatisfiable:
                pass


def test_member_fallback_skips_a_misaligned_member(server):
    lm = remote(server)
    spec = VariableSpec("X", one_of=OneOf(("b", "c")), max_tokens=2)
    sketch = Sketch(name="s", chunks=(Chunk.variable(spec),))
    # room for the hand-built "ca" before the value; the sketch alone
    # would have a cap of 2
    eng = _Engine(StaticSketchSource(sketch), lm, DecoderConfig(global_max_tokens=4))
    toks = lm.tokenize("ca")
    h = Hypothesis().with_forced_span(toks, [-1.0] * len(toks), "ca")
    # "ca" + "b" comes back as "c", "ab": only "c" can be scored
    h_x = h.with_open_variable(spec, MaskState.start(spec))
    options = eng.fallback_completions(h_x, eng.entry(h_x))
    assert [o.state.partial_value for o in options] == ["c"]
    only_b = VariableSpec("X", one_of=OneOf(("b",)), max_tokens=2)
    opened = h.with_open_variable(only_b, MaskState.start(only_b))
    assert eng.fallback_completions(opened, eng.entry(opened)) == []


def test_forced_scoring_rejects_null_logprob_region():
    with MockCompletionsServer(local_table(), null_first_logprob=True) as server:
        lm = remote(server)
        toks = lm.tokenize("ca")
        with pytest.raises(ForcedScoringUnsupported):
            lm.score_forced((), toks)
        # with a nonempty prefix the null falls outside the scored region
        assert lm.score_forced(toks[:1], toks[1:]) == pytest.approx(
            [math.log(0.40)], abs=1e-12  # P("a" | "c") in the table
        )


def test_retries_recover_from_transient_failures(server):
    lm = remote(server, retries=3)
    server.fail_next = 2
    dist = lm.next_distribution(())
    assert dist.entries
    assert len(server.requests) == 3  # two failures, one success


def test_retries_exhaust_to_backend_unavailable(server):
    lm = remote(server, retries=2)
    server.fail_next = 10
    with pytest.raises(BackendUnavailable):
        lm.next_distribution(())
    assert len(server.requests) == 3  # initial try plus two retries


def test_context_length_maps_to_typed_error(server):
    lm = remote(server, retries=2)
    server.error_once = (400, "This model's maximum context length is 8 tokens")
    with pytest.raises(ContextTooLong):
        lm.next_distribution(())
    assert len(server.requests) == 1  # no retry on 4xx


def test_other_client_errors_fail_fast(server):
    lm = remote(server, retries=2)
    server.error_once = (403, "invalid api key")
    with pytest.raises(BackendUnavailable):
        lm.next_distribution(())
    assert len(server.requests) == 1


def corrupt(server, change):
    """Pass every later answer of the mock service through ``change``."""
    answer = server.answer
    server.answer = lambda payload: change(answer(payload))


def with_logprobs(key, value):
    def change(body):
        body["choices"][0]["logprobs"][key] = value
        return body

    return change


def next_distribution(lm, toks):
    return lm.next_distribution(toks)


def tokenize(lm, toks):
    return lm.tokenize("ba")  # not yet cached


def score_forced(lm, toks):
    return lm.score_forced(toks[:1], toks[1:])


@pytest.mark.parametrize(
    "change, call",
    [
        (lambda body: [body], next_distribution),
        (lambda body: {"choices": [None]}, next_distribution),
        (with_logprobs("top_logprobs", [{"a": "x"}]), next_distribution),
        (with_logprobs("top_logprobs", [{"a": None}]), next_distribution),
        (with_logprobs("top_logprobs", {"a": -1.0}), next_distribution),
        (with_logprobs("tokens", [1, 2]), tokenize),
        (with_logprobs("tokens", [1, 2]), score_forced),
        (with_logprobs("token_logprobs", [-1.0, "x"]), score_forced),
        (with_logprobs("text_offset", ["0", "1"]), score_forced),
    ],
    ids=[
        "array-body",
        "null-choice",
        "string-top-logprob",
        "null-top-logprob",
        "top-logprobs-object",
        "int-tokens-tokenize",
        "int-tokens-score-forced",
        "string-token-logprob",
        "string-text-offset",
    ],
)
def test_malformed_bodies_raise_backend_unavailable(server, change, call):
    lm = remote(server, retries=2)
    toks = lm.tokenize("cab")
    corrupt(server, change)
    before = len(server.requests)
    with pytest.raises(BackendUnavailable, match="completion response|not an object"):
        call(lm, toks)
    assert len(server.requests) == before + 1  # not retried


def with_logprob(shape, value):
    """Answers whose last log-probability is ``value``: in the top
    log-probabilities of a next-token read, or in an echo's token
    log-probabilities, which for "cab" are those of "c" and "ab"."""
    if shape == "top_logprobs":
        return with_logprobs(shape, [{"a": -1.0, "b": value}])
    return with_logprobs(shape, [-1.0, value])


SHAPES = {"top_logprobs": next_distribution, "token_logprobs": score_forced}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize(
    "value", [math.nan, math.inf, 0.5, 5e-324, 3], ids=["nan", "inf", "half", "tiny", "int"]
)
def test_a_log_probability_above_zero_is_refused(server, shape, value):
    """NaN, +inf and positive log-probabilities are refused as a malformed
    body is: at once, and not retried."""
    lm = remote(server, retries=2)
    toks = lm.tokenize("cab")
    corrupt(server, with_logprob(shape, value))
    before = len(server.requests)
    with pytest.raises(BackendUnavailable, match="not a number at most 0"):
        SHAPES[shape](lm, toks)
    assert len(server.requests) == before + 1


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("value", [-math.inf, 0.0, -0.0, 0, -2])
def test_a_log_probability_at_most_zero_is_read(server, shape, value):
    lm = remote(server)
    toks = lm.tokenize("cab")
    corrupt(server, with_logprob(shape, value))
    got = SHAPES[shape](lm, toks)
    if shape == "top_logprobs":
        got = dict(got.entries)[lm.vocab.intern("b")]
    else:
        (got,) = got
    assert type(got) is float and got == value


@pytest.mark.parametrize("shape", SHAPES)
def test_an_integer_log_probability_below_the_float_range_is_minus_infinity(
    server, shape
):
    """JSON reads -1 followed by 400 zeros as an integer that no float holds;
    it is at most 0, and read as -inf, as JSON reads -1e400."""
    lm = remote(server)
    toks = lm.tokenize("cab")
    corrupt(server, with_logprob(shape, -(10**400)))
    got = SHAPES[shape](lm, toks)
    if shape == "top_logprobs":
        got = dict(got.entries)[lm.vocab.intern("b")]
    else:
        (got,) = got
    assert got == -math.inf


# what a changed answer may carry in place of a log-probability
BAD_LOGPROBS = (
    math.nan, math.inf, -math.inf, 0.5, True, "-1.0", None, -(10**400), 10**400
)


def _fields(value, path=()):
    """Every (container, key, path) inside a JSON value, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, inner in items:
        yield value, key, path + (key,)
        if isinstance(inner, (dict, list)):
            yield from _fields(inner, path + (key,))


def change_one_field(data, body: dict) -> dict:
    """``body`` with one field changed, drawn from ``data``: a
    log-probability replaced, a key dropped, a list cut short, or a second
    choice added."""
    fields = list(_fields(body))
    kind = data.draw(st.sampled_from(("logprob", "drop", "cut", "choice")))
    if kind == "logprob":
        logprobs = [
            (parent, key)
            for parent, key, path in fields
            if "token_logprobs" in path[-2:-1] or "top_logprobs" in path[-3:-2]
        ]
        parent, key = data.draw(st.sampled_from(logprobs))
        parent[key] = data.draw(st.sampled_from(BAD_LOGPROBS))
    elif kind == "drop":
        dicts = [(parent, key) for parent, key, _ in fields if isinstance(parent, dict)]
        parent, key = data.draw(st.sampled_from(dicts))
        del parent[key]
    elif kind == "cut":
        lists = [
            parent[key]
            for parent, key, _ in fields
            if isinstance(parent[key], list) and parent[key]
        ]
        cut = data.draw(st.sampled_from(lists))
        del cut[data.draw(st.integers(0, len(cut) - 1)) :]
    else:
        body["choices"].append(data.draw(st.sampled_from(({}, body["choices"][0]))))
    return body


def well_typed_logprob(value) -> bool:
    return type(value) is float and not math.isnan(value) and value <= 0


@settings(max_examples=150, deadline=None)
@given(st.data(), st.text("abc", min_size=1, max_size=6))
def test_a_changed_answer_gives_typed_values_or_a_package_error(data, text):
    """Each call the backend makes, given an answer with one field changed,
    returns token ids that are ints and log-probabilities that are floats,
    not NaN and at most 0, or raises an error of the package; nothing else
    escapes.  No request leaves the process: the backend's ``_post`` reads
    the mock service's answers directly."""
    answers = MockCompletions(local_table())
    lm = RemoteCompletionsLM(DEAD_URL, "mock-model", api_key="k")
    change = False
    lm._post = lambda payload: (
        change_one_field(data, answers.answer(payload))
        if change
        else answers.answer(payload)
    )
    toks = lm.tokenize(text)
    split = data.draw(st.integers(0, len(toks) - 1))
    change = True
    try:
        dist = lm.next_distribution(toks)
        assert all(
            type(t) is int and well_typed_logprob(lp) for t, lp in dist.entries
        )
    except SketchdecError:
        pass
    try:
        assert all(type(t) is int for t in lm.tokenize("c" + text))
    except SketchdecError:
        pass
    try:
        got = lm.score_forced(toks[:split], toks[split:])
        assert len(got) == len(toks) - split
        assert all(map(well_typed_logprob, got))
    except SketchdecError:
        pass


def test_retries_are_logged(server, caplog):
    caplog.set_level(logging.INFO, logger="sketchdec.remote")
    lm = remote(server, retries=3)
    lm.next_distribution(())
    assert caplog.records == []
    server.fail_next = 2
    lm.next_distribution(())
    assert [r.levelno for r in caplog.records] == [logging.INFO] * 2
    first, second = (r.getMessage() for r in caplog.records)
    assert "attempt 1 of 4 failed (HTTP 500); retrying in " in first
    assert "attempt 2 of 4 failed (HTTP 500); retrying in " in second
    caplog.clear()
    dead = RemoteCompletionsLM(DEAD_URL, "m", retries=1, backoff_base=0.001)
    with pytest.raises(BackendUnavailable):
        dead.next_distribution(())
    (record,) = caplog.records
    assert "attempt 1 of 2 failed (ConnectionError)" in record.getMessage()


@pytest.mark.parametrize("netrc_entry", [False, True])
def test_bearer_header(server, monkeypatch, tmp_path, netrc_entry):
    if netrc_entry:
        # requests would let a matching .netrc entry replace the header
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login user password netrc-secret\n")
        netrc.chmod(0o600)
        monkeypatch.setenv("NETRC", str(netrc))
    remote(server, api_key="secret-key").next_distribution(())
    assert server.auth_headers[-1] == "Bearer secret-key"
    monkeypatch.delenv("SKETCHDEC_API_KEY", raising=False)
    remote(server, api_key=None).next_distribution(())
    assert server.auth_headers[-1] is None


def test_environment_is_read_once_per_backend(server, monkeypatch):
    lookups = []
    real = requests.utils.get_environ_proxies

    def counting(*args, **kwargs):
        lookups.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(requests.sessions, "get_environ_proxies", counting)
    monkeypatch.setattr(requests.utils, "get_environ_proxies", counting)
    for _ in range(2):
        before, sent = len(lookups), len(server.requests)
        lm = remote(server)
        toks = lm.tokenize("cab")
        lm.next_distribution(toks)
        for _ in range(6):
            lm.score_forced(toks[:1], toks[1:])
        assert len(server.requests) - sent == 8
        assert len(lookups) - before <= 1


def clear_proxy_environment(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


def test_proxies_are_read_at_construction(server, monkeypatch):
    clear_proxy_environment(monkeypatch)
    monkeypatch.setenv("HTTP_PROXY", DEAD_URL)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    bypassing = remote(server, retries=0)
    monkeypatch.delenv("NO_PROXY")
    assert bypassing.next_distribution(()).entries  # not sent to the proxy

    proxied = remote(server, retries=0)
    monkeypatch.delenv("HTTP_PROXY")
    with pytest.raises(BackendUnavailable):
        proxied.next_distribution(())  # still sent to the dead proxy


def test_shared_session_is_read_for_each_backend(monkeypatch):
    clear_proxy_environment(monkeypatch)
    monkeypatch.setenv("HTTP_PROXY", DEAD_URL)
    monkeypatch.setenv("NO_PROXY", "bypassed.invalid")
    session = requests.Session()
    first = RemoteCompletionsLM("http://proxied.invalid", "m", session=session)
    second = RemoteCompletionsLM("http://bypassed.invalid", "m", session=session)
    third = RemoteCompletionsLM("http://proxied.invalid", "m", session=session)
    assert first._send_settings["proxies"].get("http") == DEAD_URL
    assert second._send_settings["proxies"] == {}
    assert third._send_settings == first._send_settings
    assert session.trust_env is False

    opted_out = requests.Session()
    opted_out.trust_env = False
    lm = RemoteCompletionsLM("http://proxied.invalid", "m", session=opted_out)
    assert "http" not in lm._send_settings["proxies"]


def test_connection_refused_becomes_backend_unavailable():
    lm = RemoteCompletionsLM(
        DEAD_URL,
        "mock-model",
        api_key="k",
        retries=1,
        backoff_base=0.001,
        timeout_s=0.5,
    )
    with pytest.raises(BackendUnavailable):
        lm.next_distribution(())


def test_full_decode_matches_local_backend():
    table = fig1.fig1_backend()
    sketch = fig1.fig1_sketch()
    with MockCompletionsServer(table) as server:
        for kind, width in (("argmax", 1), ("beamvar", 2)):
            lm = remote(server)
            local = decode(sketch, table, DecoderConfig(kind=kind, width=width))
            over_http = decode(sketch, lm, DecoderConfig(kind=kind, width=width))
            assert over_http.text == local.text
            assert over_http.bindings.as_dict() == local.bindings.as_dict()
            assert over_http.best.raw_score == pytest.approx(
                local.best.raw_score, abs=1e-9
            )



# var/sample is left out until ROADMAP item 10 lands: its draws hash token
# ids, and a remote backend's ids follow its registry's first-seen order
PARITY_CONFIGS = (
    {"kind": "argmax", "width": 1},
    {"kind": "beam", "width": 2},
    {"kind": "beamvar", "width": 2},
    {"kind": "var", "width": 2, "proposal": "branch"},
    {"kind": "var", "width": 2, "proposal": "exhaustive"},
)


def config_name(config: dict) -> str:
    return "/".join(str(config[k]) for k in ("kind", "proposal") if k in config)


# (echo, next-distribution) requests the mock sees in one pass over the
# parity sketches: per config on a fresh backend, and ("shared") for one
# pass of every config over one backend, sketch by sketch
PINNED_REQUESTS = {
    "argmax": (38, 28),
    "beam": (47, 49),
    "beamvar": (53, 46),
    "var/branch": (49, 55),
    "var/exhaustive": (49, 725),
    "shared": (168, 903),
}


def test_request_counts_are_pinned():
    """The requests a decode sends over HTTP are pinned, split by kind: a
    change that sends more, or fewer, re-records them with its reason."""
    table = random_backend(0, merges=())
    sketches = [random_sketch(random.Random(i)) for i in range(8)]

    def counted(lm, configs) -> tuple[int, int]:
        start = len(server.requests)
        for sketch in sketches:
            for config in configs:
                decode(sketch, lm, DecoderConfig(**config))
        echoes = sum(1 for p in server.requests[start:] if p.get("echo"))
        return echoes, len(server.requests) - start - echoes

    with MockCompletionsServer(table) as server:
        got = {
            config_name(config): counted(remote(server), [config])
            for config in PARITY_CONFIGS
        }
        got["shared"] = counted(remote(server), PARITY_CONFIGS)
    assert got == PINNED_REQUESTS


# per decoder, over the first 50 generated sketches on a table model with
# the merged tokens "ab" and "cd", each decoded on a fresh HTTP backend:
# (decodes that raise TemplateUnsatisfiable, successes after a
# ForcedTextMisaligned, successes whose best differs from the local decode).
# The ledger records a known defect (ROADMAP item 14); it does not accept it
PINNED_LEDGER = {
    "argmax": (8, 0, 0),
    "beam": (1, 8, 5),
    "beamvar": (1, 12, 5),
    "var/branch": (4, 6, 3),
}


def test_merged_boundary_ledger_is_pinned():
    """Where the service merges a value's last characters with the forced
    text after it, decodes over HTTP fail or differ from the local decodes,
    which all succeed; how many do is pinned per decoder, and a change that
    moves a count re-records it with its reason."""
    table = random_backend(0)
    sketches = [random_sketch(random.Random(i)) for i in range(50)]

    def fingerprint(result):
        return result.text, result.bindings.as_dict(), result.best.raw_score.hex()

    got = {}
    with MockCompletionsServer(table) as server:
        for config in PARITY_CONFIGS[:4]:
            unsatisfiable = after_misaligned = differs = 0
            for sketch in sketches:
                local = decode(sketch, table, DecoderConfig(**config))
                lm = remote(server)
                misaligned = []
                score_forced = lm.score_forced

                def counting(*args, **kwargs):
                    try:
                        return score_forced(*args, **kwargs)
                    except ForcedTextMisaligned:
                        misaligned.append(args)
                        raise

                lm.score_forced = counting
                try:
                    result = decode(sketch, lm, DecoderConfig(**config))
                except TemplateUnsatisfiable:
                    unsatisfiable += 1
                    continue
                after_misaligned += bool(misaligned)
                differs += fingerprint(result) != fingerprint(local)
            got[config_name(config)] = (unsatisfiable, after_misaligned, differs)
    assert got == PINNED_LEDGER


def test_generated_sketches_decode_the_same_over_http():
    """Each decode over the mock, on a fresh backend and on one warmed by
    every earlier decode, equals the local decode bit for bit.  No token
    merges, so the service never merges a value into its forced text."""
    table = random_backend(0, merges=())
    with MockCompletionsServer(table) as server:
        warmed = remote(server)
        # the fixture keys a row by its whole text, and serves it as is
        for text in ("", "a", "dcba", "abcdabcd"):
            got = warmed.next_distribution(warmed.tokenize(text), text)
            assert {warmed.vocab.token_text(i): lp for i, lp in got.entries} == {
                table.vocab.token_text(i): lp
                for i, lp in table.next_distribution(table.tokenize(text)).entries
            }
            assert warmed.score_forced((), warmed.tokenize(text)) == (
                table.score_forced((), table.tokenize(text))
            )
        for i in range(8):
            sketch = random_sketch(random.Random(i))
            for config in PARITY_CONFIGS:
                want = decode(sketch, table, DecoderConfig(**config))
                for lm in (remote(server), warmed):
                    got = decode(sketch, lm, DecoderConfig(**config))
                    assert (
                        got.text,
                        got.bindings.as_dict(),
                        got.best.raw_score.hex(),
                    ) == (
                        want.text,
                        want.bindings.as_dict(),
                        want.best.raw_score.hex(),
                    ), (i, config)
