"""Vocabulary handling, greedy segmentation, table and n-gram backends."""
import itertools
import json
import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from sketchdec import lm
from sketchdec.errors import ModelFileError, UnsegmentableText
from sketchdec.lm import (
    NGramLM,
    StateTableLM,
    TableLM,
    TokenDistribution,
    Vocabulary,
    _logify,
    greedy_tokenize,
)


def test_vocabulary_validation():
    with pytest.raises(ValueError):
        Vocabulary(("a",), eos_index=1)
    with pytest.raises(ValueError):
        Vocabulary(("a", "a", ""), eos_index=2)
    with pytest.raises(ValueError):
        # empty string is reserved for EOS
        Vocabulary(("a", ""), eos_index=0)
    vocab = Vocabulary(("", "a", "b"), eos_index=0)
    assert len(vocab) == 3
    assert vocab.token_text(1) == "a"
    assert vocab.index_of("b") == 2
    assert vocab.index_of("zzz") is None


def test_greedy_tokenize_prefers_longest_match():
    vocab = Vocabulary(("", "a", "b", "ab"), eos_index=0)
    assert greedy_tokenize(vocab, "ab") == [3]
    assert greedy_tokenize(vocab, "aab") == [1, 3]
    assert greedy_tokenize(vocab, "ba") == [2, 1]


def test_greedy_tokenize_reports_position():
    vocab = Vocabulary(("", "a"), eos_index=0)
    with pytest.raises(UnsegmentableText) as exc:
        greedy_tokenize(vocab, "aaxa")
    assert exc.value.position == 2


@given(st.lists(st.sampled_from(["a", "b", "ab", "ba"]), max_size=12))
def test_tokenize_detokenize_round_trip(pieces):
    vocab = Vocabulary(("", "a", "b", "ab", "ba"), eos_index=0)
    text = "".join(pieces)
    tokens = greedy_tokenize(vocab, text)
    assert "".join(vocab.token_text(t) for t in tokens) == text


def test_tokenize_segments_a_text_once_per_vocabulary(monkeypatch):
    """Backends over one vocabulary share its segmentations: each text is
    segmented once, and every call gets the one tuple the vocabulary
    keeps, which no caller can change.  A text that cannot be segmented
    raises on every call."""
    vocab = Vocabulary(("", "a", "b", "ab"), eos_index=0)
    first = TableLM(vocab, {}, default_row=[0.25] * 4)
    second = TableLM(vocab, {}, default_row=[0.25] * 4)
    segmented = []
    greedy = lm.greedy_tokenize

    def counting(vocab, text):
        segmented.append(text)
        return greedy(vocab, text)

    monkeypatch.setattr(lm, "greedy_tokenize", counting)
    got = first.tokenize("aab")
    assert got == (1, 3)
    again = second.tokenize("aab")
    assert again is got and again is first.tokenize("aab")
    assert segmented == ["aab"]
    for _ in range(2):
        with pytest.raises(UnsegmentableText):
            first.tokenize("ax")
    assert segmented == ["aab", "ax", "ax"]


def test_tokenize_memo_stays_at_its_bound(monkeypatch):
    """The vocabulary keeps at most ``TOKENIZE_MEMO_SIZE`` texts, oldest
    evicted first, and a text read again after its eviction is segmented
    again, to the same tokens."""
    monkeypatch.setattr(lm, "TOKENIZE_MEMO_SIZE", 8)
    vocab = Vocabulary(("", "a", "b", "ab"), eos_index=0)
    backend = TableLM(vocab, {}, default_row=[0.25] * 4)
    texts = ["".join(p) for n in range(1, 5) for p in itertools.product("ab", repeat=n)]
    for text in texts:
        assert backend.tokenize(text) == tuple(greedy_tokenize(vocab, text))
        assert len(vocab._tokenized) <= 8
    assert list(vocab._tokenized) == texts[-8:]
    assert backend.tokenize(texts[0]) == tuple(greedy_tokenize(vocab, texts[0]))
    assert list(vocab._tokenized) == texts[-7:] + texts[:1]


def logprobs(dist: TokenDistribution) -> dict[int, float]:
    """Each listed token's log-probability, read from the entries."""
    return dict(dist.entries)


def test_distribution_sorted_best_first_lowest_index_ties():
    dist = TokenDistribution.from_pairs(
        [(2, -1.0), (0, -0.5), (1, -1.0)], complete=True
    )
    assert dist.entries == ((0, -0.5), (1, -1.0), (2, -1.0))
    assert dist.top(1) == ((0, -0.5),)
    assert logprobs(dist)[2] == -1.0
    assert 9 not in logprobs(dist)


def table_fixture() -> TableLM:
    vocab = ("", "a", "b")
    return TableLM(
        Vocabulary(vocab, 0),
        rows={"a": [0.2, 0.3, 0.5]},
        default_row=[0.5, 0.25, 0.25],
    )


def test_table_row_selected_by_detokenized_prefix():
    lm = table_fixture()
    dist = lm.next_distribution([1])
    assert dist.entries[0] == (2, math.log(0.5))
    assert dist.complete


def test_table_miss_falls_back_to_default():
    lm = table_fixture()
    assert lm.next_distribution([2]).entries[0] == (0, math.log(0.5))
    assert lm.next_distribution([]).entries[0] == (0, math.log(0.5))


def test_table_zero_probability_becomes_neg_inf():
    lm = TableLM(
        Vocabulary(("", "a"), 0), rows={}, default_row=[1.0, 0.0]
    )
    assert logprobs(lm.next_distribution([]))[1] == float("-inf")


def test_table_rows_changed_after_construction_are_not_served():
    vocab = Vocabulary(("", "a"), 0)
    rows = {"": [0.25, 0.75]}
    lm = TableLM(vocab, rows, default_row=[0.5, 0.5])
    rows["a"] = [0.9, 0.9]  # added, and invalid: it sums to 1.8
    rows[""] = [0.9, 0.1]  # replaced
    assert logprobs(lm.next_distribution([1])) == {0: math.log(0.5), 1: math.log(0.5)}
    assert logprobs(lm.next_distribution([])) == {0: math.log(0.25), 1: math.log(0.75)}
    assert lm.score_forced([], [1, 1]) == [math.log(0.75), math.log(0.5)]


def test_table_rows_changed_in_place_after_construction_are_not_served():
    vocab = Vocabulary(("", "a", "b"), 0)
    row = [0.2, 0.5, 0.3]
    lm = TableLM(vocab, {"": row}, default_row=[0.5, 0.25, 0.25])
    row[:] = [0.6, 0.3, 0.1]  # still a valid row
    assert logprobs(lm.next_distribution([])) == {
        0: math.log(0.2),
        1: math.log(0.5),
        2: math.log(0.3),
    }
    assert lm.score_forced([], [2]) == [math.log(0.3)]


@given(st.data(), st.lists(st.integers(0, 4), max_size=6))
def test_table_row_memo_equals_fresh_rows(data, cuts):
    vocab = data.draw(vocabularies())
    ids = st.integers(0, len(vocab) - 1)
    path = data.draw(st.lists(ids, max_size=4), "path")
    rows = {
        "".join(vocab.tokens[t] for t in path[:c]): data.draw(probability_rows(len(vocab)))
        for c in cuts
    }
    default = data.draw(probability_rows(len(vocab)), "default")
    lm = TableLM(vocab, rows, default_row=default)
    prefixes = data.draw(st.lists(st.lists(ids, max_size=4), max_size=8), "prefixes")
    # each prefix twice, so that the second read comes from the memo
    for prefix in [path[:c] for c in range(len(path) + 1)] + prefixes * 2:
        row = rows.get(lm.detokenize(prefix), default)
        fresh = TokenDistribution.from_pairs(list(enumerate(_logify(row))), True)
        dist = lm.next_distribution(prefix)
        assert (dist.entries, dist.complete) == (fresh.entries, fresh.complete)
    assert len(lm._kept) <= len(rows) + 1


def test_table_row_memo_is_bounded_by_the_model_file():
    vocab = Vocabulary(("", "a", "b", "c"), 0)
    rows = {"": [0.1, 0.2, 0.3, 0.4], "a": [0.4, 0.3, 0.2, 0.1], "ab": [0.7, 0.1, 0.1, 0.1]}
    default = [0.25, 0.25, 0.25, 0.25]
    # 200 distinct prefixes that no row names
    unseen = [list(p) for p in itertools.product((1, 2, 3), repeat=5)][:200]
    lm = TableLM(vocab, rows, default_row=default)
    for prefix in unseen + [[], [1], [1, 2]]:
        lm.next_distribution(prefix)
    assert len(lm._kept) == len(rows) + 1
    assert lm.next_distribution([1]) is lm.next_distribution([1])


def test_table_row_validation():
    vocab = Vocabulary(("", "a"), 0)
    with pytest.raises(ModelFileError):
        TableLM(vocab, rows={}, default_row=[0.5, 0.6])
    with pytest.raises(ModelFileError):
        TableLM(vocab, rows={}, default_row=[1.0])
    with pytest.raises(ModelFileError):
        TableLM(vocab, rows={}, default_row=[1.5, -0.5])
    with pytest.raises(ModelFileError):
        TableLM(vocab, rows={"x": [1.0]}, default_row=[0.5, 0.5])
    with pytest.raises(ModelFileError):
        TableLM(vocab, rows={"x": [0.9, 0.2]}, default_row=[0.5, 0.5])


@pytest.mark.parametrize(
    "fields",
    [
        {"default": [float("nan"), 0.5, 0.5]},
        {"contexts": {"a": [0.5, float("nan"), 0.5]}},
        {"default": [True, False, 0.0]},
        {"contexts": {"a": [0.0, 0.0, True]}},
        {"contexts": {"a": 3}},
        {"contexts": {"a": None}},
        {"default": 1},
        # each of these two would otherwise build a valid three-token model
        {"vocab": "xab"},
        {"vocab": ["x", "", "b"], "eos": True},
    ],
    ids=[
        "nan-default",
        "nan-context",
        "bool-default",
        "bool-context",
        "number-context",
        "null-context",
        "number-default",
        "string-vocab",
        "bool-eos",
    ],
)
def test_table_from_json_rejects_nan_and_bool(fields):
    """A value of the wrong type is a ModelFileError, never a TypeError
    or a silent reading."""
    model = {
        "vocab": ["", "a", "b"],
        "eos": 0,
        "contexts": {},
        "default": [0.5, 0.25, 0.25],
    }
    # json.loads accepts the NaN literal, so a model file can carry one
    data = json.loads(json.dumps({**model, **fields}))
    with pytest.raises(ModelFileError):
        TableLM.from_json(data)


def test_state_row_nan_rejected_on_every_read():
    vocab = Vocabulary(("", "a"), 0)
    lm = StateTableLM(vocab, lambda text: None, lambda text: [float("nan"), 1.0])
    for _ in range(2):
        with pytest.raises(ModelFileError):
            lm.next_distribution([])
        with pytest.raises(ModelFileError):
            lm.score_forced([], [1])
    assert lm._kept == {}


def test_table_from_json_strict_keys():
    data = {
        "vocab": ["", "a"],
        "eos": 0,
        "contexts": {},
        "default": [0.5, 0.5],
        "extra": 1,
    }
    with pytest.raises(ModelFileError):
        TableLM.from_json(data)
    del data["extra"]
    del data["default"]
    with pytest.raises(ModelFileError):
        TableLM.from_json(data)


def test_table_from_file_errors(tmp_path):
    with pytest.raises(ModelFileError):
        TableLM.from_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ModelFileError):
        TableLM.from_file(str(bad))
    listy = tmp_path / "list.json"
    listy.write_text("[]")
    with pytest.raises(ModelFileError):
        TableLM.from_file(str(listy))


def test_score_forced_chains_conditionals():
    lm = table_fixture()
    lps = lm.score_forced([], [1, 2])
    # first token from the default row, second from the "a" row
    assert lps == [math.log(0.25), math.log(0.5)]
    assert lm.score_forced([], []) == []


def test_score_forced_unknown_token_is_neg_inf():
    lm = TableLM(
        Vocabulary(("", "a"), 0), rows={}, default_row=[1.0, 0.0]
    )
    assert lm.score_forced([], [1]) == [float("-inf")]


def ngram_fixture(order: int = 1) -> NGramLM:
    vocab = Vocabulary(("a", "b", ""), eos_index=2)
    # corpus "aba": unigram counts a=2, b=1 over length 3
    return NGramLM(vocab, order, [0, 1, 0])


def test_unigram_add_one_smoothing():
    lm = ngram_fixture(order=1)
    lps = logprobs(lm.next_distribution([]))
    assert lps[0] == pytest.approx(math.log(3 / 6))
    assert lps[1] == pytest.approx(math.log(2 / 6))
    assert lps[2] == pytest.approx(math.log(1 / 6))


def test_bigram_counts_and_backoff():
    lm = ngram_fixture(order=2)
    # after "a" the corpus continues with b once (contexts: a->b, b->a)
    after_a = logprobs(lm.next_distribution([0]))
    assert after_a[1] == pytest.approx(math.log(2 / 4))
    assert after_a[0] == pytest.approx(math.log(1 / 4))
    # unseen context backs off to the smoothed unigram
    after_eos = logprobs(lm.next_distribution([2]))
    assert after_eos[0] == pytest.approx(math.log(3 / 6))
    # shorter-than-context prefixes use the same backoff
    assert logprobs(lm.next_distribution([]))[0] == pytest.approx(math.log(3 / 6))


def test_ngram_rows_are_distributions():
    lm = ngram_fixture(order=2)
    for prefix in ([], [0], [1], [2], [0, 1]):
        total = math.fsum(
            math.exp(lp) for _, lp in lm.next_distribution(prefix).entries
        )
        assert total == pytest.approx(1.0)


def test_ngram_order_validation():
    with pytest.raises(ModelFileError):
        NGramLM(Vocabulary(("a", ""), 1), 0, [0])


def ngram_config(tmp_path, **overrides):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("aba")
    data = {
        "order": 2,
        "vocab": ["a", "b"],
        "corpus_path": "corpus.txt",
        "tokenizer": "char",
    }
    data.update(overrides)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_ngram_from_file_resolves_corpus_relative_to_config(tmp_path):
    lm = NGramLM.from_file(ngram_config(tmp_path))
    assert lm.order == 2
    # EOS appended as the final vocabulary entry
    assert lm.vocab.tokens == ("a", "b", "")
    assert logprobs(lm.next_distribution([0]))[1] == pytest.approx(math.log(2 / 4))


def test_ngram_word_tokenizer(tmp_path):
    corpus = tmp_path / "words.txt"
    corpus.write_text("to be or not to be")
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {
                "order": 2,
                "vocab": ["to", "be", "or", "not"],
                "corpus_path": "words.txt",
                "tokenizer": "word",
            }
        )
    )
    lm = NGramLM.from_file(str(path))
    after_to = lm.next_distribution([lm.vocab.index_of("to")])
    assert after_to.entries[0][0] == lm.vocab.index_of("be")


@pytest.mark.parametrize(
    "overrides",
    [
        {"order": 0},
        {"order": True},
        {"vocab": "ab"},
        {"tokenizer": "byte"},
        {"corpus_path": "missing.txt"},
        {"corpus_path": 3},
        {"corpus_path": None},
        {"corpus_path": ["corpus.txt"]},
        {"extra_key": 1},
    ],
)
def test_ngram_config_rejected(tmp_path, overrides):
    with pytest.raises(ModelFileError):
        NGramLM.from_file(ngram_config(tmp_path, **overrides))


def test_ngram_corpus_token_outside_vocab(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("abz")
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {
                "order": 1,
                "vocab": ["a", "b"],
                "corpus_path": "corpus.txt",
                "tokenizer": "char",
            }
        )
    )
    with pytest.raises(ModelFileError):
        NGramLM.from_file(str(path))


# --- one-pass forced scoring against the per-token reference -----------------


def reference_score_forced(lm, prefix, continuation) -> list[float]:
    """One ``next_distribution`` call per forced token."""
    out = []
    for i, t in enumerate(continuation):
        dist = lm.next_distribution(list(prefix) + list(continuation[:i]))
        out.append(logprobs(dist).get(t, float("-inf")))
    return out


@st.composite
def vocabularies(draw, max_tokens: int = 5) -> Vocabulary:
    texts = draw(
        st.lists(
            st.text("abc", min_size=1, max_size=2),
            min_size=1,
            max_size=max_tokens,
            unique=True,
        )
    )
    eos = draw(st.integers(0, len(texts)))
    return Vocabulary(tuple(texts[:eos] + [""] + texts[eos:]), eos)


def probability_rows(size: int):
    """Rows of exact quotients of small weights; zeros are common."""
    weights = st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any)
    return weights.map(lambda w: [x / sum(w) for x in w])


@given(st.data())
def test_table_score_forced_matches_reference(data):
    vocab = data.draw(vocabularies())
    ids = st.integers(0, len(vocab) - 1)
    prefix = data.draw(st.lists(ids, max_size=4), "prefix")
    cont = data.draw(st.lists(ids, max_size=6), "continuation")
    full = prefix + cont
    # contexts on the scored path, so that rows are hit as well as missed
    cuts = data.draw(st.sets(st.integers(0, len(full))), "context cuts")
    table = {
        "".join(vocab.tokens[t] for t in full[:c]): data.draw(
            probability_rows(len(vocab))
        )
        for c in cuts
    }
    default = data.draw(probability_rows(len(vocab)), "default")
    lm = TableLM(vocab, table, default_row=default)
    assert lm.score_forced(prefix, cont) == reference_score_forced(lm, prefix, cont)


@given(st.data(), st.integers(1, 3))
def test_ngram_score_forced_matches_reference(data, order):
    vocab = data.draw(vocabularies())
    ids = st.integers(0, len(vocab) - 1)
    # a short corpus leaves most contexts unseen
    corpus = data.draw(st.lists(ids, max_size=12), "corpus")
    prefix = data.draw(st.lists(ids, max_size=order + 1), "prefix")
    cont = data.draw(st.lists(ids, max_size=6), "continuation")
    lm = NGramLM(vocab, order, corpus)
    assert lm.score_forced(prefix, cont) == reference_score_forced(lm, prefix, cont)
    assert lm.score_forced(tuple(prefix), cont) == lm.score_forced(prefix, cont)


def reference_followers(order, corpus, prefix) -> list[int]:
    """Every corpus token that follows the prefix's context."""
    k = order - 1
    context = list(prefix[len(prefix) - k :])
    follow = [corpus[i] for i in range(k, len(corpus)) if corpus[i - k : i] == context]
    if len(prefix) < k or not follow:
        follow = corpus  # unseen or too-short context: the unigram backoff
    return follow


def reference_ngram_distribution(vocab, order, corpus, prefix) -> TokenDistribution:
    """Count the context's followers in the corpus, smooth every vocabulary
    entry, take logs and sort the whole vocabulary."""
    follow = reference_followers(order, corpus, prefix)
    counts = Counter(follow)
    v = len(vocab)
    probs = [(counts.get(i, 0) + 1) / (len(follow) + v) for i in range(v)]
    return TokenDistribution.from_pairs(list(enumerate(_logify(probs))), complete=True)


@given(st.data(), st.integers(1, 3))
def test_ngram_next_distribution_matches_full_sort(data, order):
    vocab = data.draw(vocabularies())
    ids = st.integers(0, len(vocab) - 1)
    corpus = data.draw(st.lists(ids, max_size=16), "corpus")
    prefix = data.draw(st.lists(ids, max_size=order + 1), "prefix")
    if data.draw(st.booleans(), "EOS inside the prefix"):
        prefix.insert(data.draw(st.integers(0, len(prefix))), vocab.eos_index)
    lm = NGramLM(vocab, order, corpus)
    want = reference_ngram_distribution(vocab, order, corpus, prefix)
    assert lm.next_distribution(prefix).entries == want.entries
    dist = lm.next_distribution(tuple(prefix))
    assert (dist.entries, dist.complete) == (want.entries, want.complete)


def ngram_prefixes(data, vocab, order, count=2) -> list[list[int]]:
    """Prefixes up to one token longer than the context, some with EOS."""
    ids = st.integers(0, len(vocab) - 1)
    prefixes = []
    for _ in range(count):
        prefix = data.draw(st.lists(ids, max_size=order + 1), "prefix")
        if data.draw(st.booleans(), "EOS inside the prefix"):
            prefix.insert(data.draw(st.integers(0, len(prefix))), vocab.eos_index)
        prefixes.append(prefix)
    return prefixes


@given(st.data(), st.integers(1, 3))
def test_ngram_view_reads_equal_materialised_reads(data, order):
    """top and allowed of the sparse n-gram distribution against the same
    reads of the whole sorted reference, with exact ==.  One model reads
    two prefixes in two rounds with different n and masks, so the second
    round reads rows the first one kept."""
    vocab = data.draw(vocabularies(max_tokens=8))
    ids = st.integers(0, len(vocab) - 1)
    corpus = data.draw(st.lists(ids, max_size=16), "corpus")
    prefixes = ngram_prefixes(data, vocab, order)
    sizes, masks = st.integers(0, len(vocab) + 1), st.frozensets(ids)
    rounds = [(data.draw(sizes, "n"), data.draw(masks, "mask")) for _ in range(2)]
    lm = NGramLM(vocab, order, corpus)
    for n, mask in rounds:
        for prefix in prefixes:
            want = reference_ngram_distribution(vocab, order, corpus, prefix)
            entries = want.entries
            assert want.top(n) == entries[:n]
            assert want.allowed(mask) == tuple(p for p in entries if p[0] in mask)
            # each read on a fresh view, and again once entries are built
            assert lm.next_distribution(prefix).top(n) == entries[:n]
            assert lm.next_distribution(prefix).allowed(mask) == want.allowed(mask)
            view = lm.next_distribution(prefix)
            assert view.entries == entries and view.complete == want.complete
            assert (view.top(n), view.allowed(mask)) == (want.top(n), want.allowed(mask))


def test_ngram_row_memo_is_bounded_by_the_model():
    vocab = Vocabulary(("", "a", "b", "c"), 0)
    lm = NGramLM(vocab, 3, [1, 2, 1, 3, 1, 2])
    # 200 distinct prefixes whose last two tokens the corpus never shows
    unseen = [
        list(p)
        for p in itertools.product((0, 1, 2, 3), repeat=5)
        if tuple(p[3:]) not in lm._follow
    ][:200]
    assert len(unseen) == 200
    contexts = [lm._unigram, *lm._follow.values()]
    for prefix in unseen + [[], [1]]:
        lm.next_distribution(prefix).top(2)
    assert [c.row is not None for c in contexts] == [True] + [False] * len(lm._follow)
    for ctx in lm._follow:
        lm.next_distribution([0, *ctx]).first(1, bool)
    assert all(c.row is not None for c in contexts)
    assert lm.next_distribution([1, 2])._row is lm.next_distribution([3, 1, 2])._row


@given(st.data())
def test_table_first_equals_masked_prefix(data):
    """first(n, accept) of a table row, with -inf entries and tied
    log-probabilities, against allowed(mask)[:n]."""
    vocab = data.draw(vocabularies(max_tokens=8))
    row = data.draw(probability_rows(len(vocab)), "row")
    mask = data.draw(st.frozensets(st.integers(0, len(vocab) - 1)), "mask")
    dist = TableLM(vocab, {}, default_row=row).next_distribution([])
    for n in range(1, 6):
        assert dist.first(n, mask.__contains__) == dist.allowed(mask)[:n]


@given(st.data(), st.integers(1, 3))
def test_ngram_first_reads_observed_followers_only(data, order):
    """first(n, accept) of the sparse n-gram view tests only observed
    followers: it equals allowed(mask)[:n] of the sorted reference, and is
    None exactly when fewer than n observed followers lie in the mask."""
    vocab = data.draw(vocabularies(max_tokens=8))
    ids = st.integers(0, len(vocab) - 1)
    corpus = data.draw(st.lists(ids, max_size=16), "corpus")
    prefixes = ngram_prefixes(data, vocab, order)
    # the second mask reads rows the first one kept
    masks = data.draw(st.lists(st.frozensets(ids), min_size=2, max_size=2), "masks")
    lm = NGramLM(vocab, order, corpus)
    for mask, prefix in itertools.product(masks, prefixes):
        want = reference_ngram_distribution(vocab, order, corpus, prefix)
        observed = set(reference_followers(order, corpus, prefix))
        for n in range(1, 6):
            tested = []
            got = lm.next_distribution(prefix).first(
                n, lambda i: tested.append(i) or i in mask
            )
            assert set(tested) <= observed
            if len(observed & mask) < n:
                assert got is None
            else:
                assert got == want.allowed(mask)[:n]


def scan_tokenize(vocab: Vocabulary, text: str) -> list[int]:
    """Greedy segmentation trying every non-EOS token, longest first."""
    order = sorted(
        (i for i, t in enumerate(vocab.tokens) if t and i != vocab.eos_index),
        key=lambda i: (-len(vocab.tokens[i]), i),
    )
    out, pos = [], 0
    while pos < len(text):
        for i in order:
            if text.startswith(vocab.tokens[i], pos):
                out.append(i)
                pos += len(vocab.tokens[i])
                break
        else:
            raise UnsegmentableText(text, pos)
    return out


@st.composite
def one_char_vocabularies(draw) -> Vocabulary:
    """Every token one character, EOS spelt "" or as a character of its own,
    which segmentation must never emit."""
    texts = draw(st.lists(st.sampled_from("abcd"), max_size=4, unique=True))
    eos_text = draw(st.sampled_from([""] + [c for c in "abcd" if c not in texts]))
    eos = draw(st.integers(0, len(texts)))
    return Vocabulary(tuple(texts[:eos] + [eos_text] + texts[eos:]), eos)


@given(
    st.one_of(vocabularies(max_tokens=8), one_char_vocabularies()),
    st.text("abcd", max_size=12),
)
def test_indexed_greedy_tokenize_matches_full_scan(vocab, text):
    """The longest-first loop gives the full scan's tokens, or fails where
    it fails, on vocabularies of one-character tokens too."""
    try:
        want = scan_tokenize(vocab, text)
    except UnsegmentableText as e:
        with pytest.raises(UnsegmentableText) as got:
            greedy_tokenize(vocab, text)
        assert got.value.position == e.position
    else:
        got = greedy_tokenize(vocab, text)
        assert got == want
        assert vocab.eos_index not in got
