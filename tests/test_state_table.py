"""The sudoku and fig1 models keep one row per model state: differential
tests against a ``StateTableLM`` over the same row function whose state is
the whole text, with exact float equality, and the memo's bound."""
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchdec.errors import ModelFileError
from sketchdec.lm import StateTableLM
from sketchdec.tasks import fig1, sudoku

# model -> (backend factory, row function, kept-row bound)
MODELS = {
    "sudoku": (sudoku.sudoku_backend, lambda vocab: sudoku._row, 512),
    "fig1": (fig1.fig1_backend, lambda vocab: partial(fig1._row, vocab), 35),
}

# one backend per model for every example, so later examples read rows
# that earlier ones kept
KEPT = {name: factory() for name, (factory, _, _) in MODELS.items()}


def reference(name: str) -> StateTableLM:
    vocab = KEPT[name].vocab
    return StateTableLM(vocab, lambda text: text, MODELS[name][1](vocab))


REFERENCE = {name: reference(name) for name in MODELS}


def token_lists(name: str):
    # every id: EOS, each digit (so repeats), each fig1 item, the separators
    return st.lists(st.integers(0, len(KEPT[name].vocab) - 1), max_size=12)


def texts(name: str):
    # the vocabulary's characters plus digits outside it ("0" and a
    # non-ASCII digit), which ``_row``'s ``isdigit`` also reads
    chars = sorted(set("".join(KEPT[name].vocab.tokens)) | {"0", "٣", "x"})
    return st.text(alphabet=chars, max_size=40)


def same_reads(name, prefix, continuation, text):
    kept, ref = KEPT[name], REFERENCE[name]
    a = kept.next_distribution(prefix, text)
    b = ref.next_distribution(prefix, text)
    assert a.entries == b.entries and a.complete is b.complete is True
    assert kept.score_forced(prefix, continuation, text) == ref.score_forced(
        prefix, continuation, text
    )


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kept_rows_equal_the_virtual_table(name, data):
    prefix = data.draw(token_lists(name), label="prefix")
    continuation = data.draw(token_lists(name), label="continuation")
    same_reads(name, prefix, continuation, None)
    same_reads(name, prefix, continuation, KEPT[name].detokenize(prefix))


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kept_rows_equal_the_virtual_table_on_any_text(name, data):
    text = data.draw(texts(name), label="text")
    continuation = data.draw(token_lists(name), label="continuation")
    same_reads(name, (), continuation, text)


def test_every_fig1_item_and_repeated_digit_is_read():
    """The states the two strategies above may miss by chance."""
    vocab = KEPT["fig1"].vocab
    items = [vocab.index_of(name) for name, _ in fig1.ITEM_PROBS]
    dash, newline = vocab.index_of(fig1.DASH), vocab.index_of(fig1.NEWLINE)
    body = [t for item in items for t in (dash, item, newline)]
    same_reads("fig1", [], body + [dash, 0, dash], None)
    same_reads("fig1", body[:6] + [dash], body + [dash], None)
    svocab = KEPT["sudoku"].vocab
    digits = [svocab.index_of(d) for d in "1135599"]
    same_reads("sudoku", digits, digits + [0] + digits[::-1], None)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_kept_rows_are_bounded_by_the_model_states(name):
    factory, _, bound = MODELS[name]
    backend = factory()
    assert backend._kept == {}  # nothing is built at construction
    rng = random.Random(0)
    v = len(backend.vocab)
    prefixes = set()
    while len(prefixes) < 1000:
        prefixes.add(tuple(rng.randrange(v) for _ in range(rng.randint(0, 20))))
    for prefix in sorted(prefixes):
        backend.next_distribution(prefix)
        backend.score_forced(prefix[:3], prefix[3:])
    assert 0 < len(backend._kept) <= bound
    before = dict(backend._kept)
    for prefix in sorted(prefixes):
        backend.next_distribution(prefix)
    assert backend._kept == before


@pytest.mark.parametrize("read", ["next_distribution", "score_forced"])
@pytest.mark.parametrize("fault", ["sum", "length"])
def test_an_invalid_state_row_raises_on_every_read(read, fault, monkeypatch):
    row = sudoku._row

    def bad(prefix):
        out = row(prefix)
        if "5" not in prefix:
            return out
        return [2 * p for p in out] if fault == "sum" else out[:-1]

    monkeypatch.setattr(sudoku, "_row", bad)
    backend = sudoku.sudoku_backend()
    five = [backend.vocab.index_of("5")]
    for _ in range(3):
        with pytest.raises(ModelFileError):
            if read == "next_distribution":
                backend.next_distribution(five)
            else:
                backend.score_forced([], five + five)
    assert frozenset("5") not in backend._kept
    # the valid states still read
    assert backend.score_forced([], five) == REFERENCE["sudoku"].score_forced([], five)
