"""Token masks, termination verdicts, and the prefix index."""
import pytest
from hypothesis import given, settings, strategies as st

from sketchdec.constraints import (
    CONTINUE,
    EOS_HIT,
    MAX_TOKENS,
    MEMBER_COMPLETE,
    STOP_PHRASE,
    MaskState,
    PrefixIndex,
    advance,
    compute_mask,
    validate_value,
)
from sketchdec.decoders import DecoderConfig, _Engine, _one_of_entry
from sketchdec.errors import DeadEnd, IllegalToken
from sketchdec.lm import TableLM, Vocabulary
from sketchdec.scoring import Hypothesis
from sketchdec.sketch import Chunk, OneOf, Sketch, StaticSketchSource, VariableSpec


# the largest code point: a member-range end computed by padding a prefix
# with a sentinel character would cut members that contain it
TOP = chr(0x10FFFF)
ALPHABET = "ab" + TOP


def char_vocab(chars: str) -> Vocabulary:
    return Vocabulary(("",) + tuple(chars), eos_index=0)


def texts(vocab: Vocabulary, mask) -> set[str]:
    return {vocab.token_text(i) for i in mask}


def test_unconstrained_mask_is_full_vocabulary():
    vocab = char_vocab("abc")
    state = MaskState.start(VariableSpec("X"))
    assert compute_mask(state, vocab) == frozenset(range(len(vocab)))


def test_digit_mask():
    vocab = char_vocab("0123456789x")
    spec = VariableSpec("A", one_of=OneOf(tuple(str(d) for d in range(10))))
    mask = compute_mask(MaskState.start(spec), vocab)
    assert texts(vocab, mask) == set("0123456789")


def test_mask_after_shared_prefix():
    # "Fr" extends toward Frisbee via "i"/"is" and toward Frame via "a"
    vocab = Vocabulary(("", "F", "r", "i", "a", "is", "m", "e", "s", "b"), 0)
    spec = VariableSpec("X", one_of=OneOf(("Frisbee", "Frame")))
    index = PrefixIndex(spec.one_of.members)
    state = MaskState(partial_value="Fr", tokens_emitted=2, index=index)
    assert texts(vocab, compute_mask(state, vocab)) == {"i", "is", "a"}


def test_eos_allowed_only_at_complete_member():
    vocab = char_vocab("ab")
    spec = VariableSpec("X", one_of=OneOf(("a", "ab")))
    index = PrefixIndex(spec.one_of.members)
    start = MaskState(partial_value="", tokens_emitted=0, index=index)
    assert vocab.eos_index not in compute_mask(start, vocab)
    at_member = MaskState(partial_value="a", tokens_emitted=1, index=index)
    assert vocab.eos_index in compute_mask(at_member, vocab)


def test_mask_dead_end():
    vocab = char_vocab("xy")
    spec = VariableSpec("X", one_of=OneOf(("ab",)))
    with pytest.raises(DeadEnd):
        compute_mask(MaskState.start(spec), vocab)


def test_stop_phrase_retained_in_value():
    vocab = Vocabulary(("", "Camera", "\n"), 0)
    spec = VariableSpec("X", stop_phrases=("\n",), max_tokens=8)
    state = MaskState.start(spec)
    state, verdict = advance(state, 1, vocab, spec.stop_phrases, spec.max_tokens)
    assert verdict.status == CONTINUE
    state, verdict = advance(state, 2, vocab, spec.stop_phrases, spec.max_tokens)
    assert verdict.status == STOP_PHRASE
    assert verdict.phrase == "\n"
    assert state.partial_value == "Camera\n"


def test_stop_phrase_completing_mid_token_fires():
    # the overrun token is kept whole even though the phrase ends inside it
    vocab = Vocabulary(("", "Ca", "m\nx"), 0)
    spec = VariableSpec("X", stop_phrases=("\n",), max_tokens=8)
    state = MaskState.start(spec)
    state, verdict = advance(state, 1, vocab, spec.stop_phrases, spec.max_tokens)
    assert verdict.status == CONTINUE
    state, verdict = advance(state, 2, vocab, spec.stop_phrases, spec.max_tokens)
    assert verdict.status == STOP_PHRASE
    assert state.partial_value == "Cam\nx"


def test_earliest_added_stop_phrase_wins():
    vocab = Vocabulary(("", "ab"), 0)
    spec = VariableSpec("X", stop_phrases=("b", "a"), max_tokens=8)
    _, verdict = advance(
        MaskState.start(spec), 1, vocab, spec.stop_phrases, spec.max_tokens
    )
    assert verdict.phrase == "b"


def test_single_member_completes_immediately():
    vocab = char_vocab("7")
    spec = VariableSpec("X", one_of=OneOf(("7",)), max_tokens=4)
    state, verdict = advance(
        MaskState.start(spec), 1, vocab, spec.stop_phrases, spec.max_tokens
    )
    assert verdict.status == MEMBER_COMPLETE
    assert state.partial_value == "7"


def test_extendable_member_continues_then_eos_completes():
    vocab = char_vocab("ab")
    spec = VariableSpec("X", one_of=OneOf(("a", "ab")), max_tokens=4)
    state, verdict = advance(
        MaskState.start(spec), 1, vocab, spec.stop_phrases, spec.max_tokens
    )
    # "a" is a member but "ab" is still reachable, so the chunk stays open
    assert verdict.status == CONTINUE
    state, verdict = advance(state, 0, vocab, spec.stop_phrases, spec.max_tokens)
    assert verdict.status == MEMBER_COMPLETE
    assert state.partial_value == "a"
    assert state.tokens_emitted == 2


def test_non_extendable_member_closes_without_eos():
    vocab = char_vocab("ab")
    spec = VariableSpec("X", one_of=OneOf(("a", "ab")), max_tokens=4)
    state, _ = advance(
        MaskState.start(spec), 1, vocab, spec.stop_phrases, spec.max_tokens
    )
    state, verdict = advance(state, 2, vocab, spec.stop_phrases, spec.max_tokens)
    assert verdict.status == MEMBER_COMPLETE
    assert state.partial_value == "ab"


def test_eos_before_member_is_illegal():
    vocab = char_vocab("ab")
    spec = VariableSpec("X", one_of=OneOf(("ab",)), max_tokens=4)
    with pytest.raises(IllegalToken):
        advance(MaskState.start(spec), 0, vocab, spec.stop_phrases, spec.max_tokens)


def test_token_leaving_every_member_is_illegal():
    vocab = char_vocab("ab")
    spec = VariableSpec("X", one_of=OneOf(("aa",)), max_tokens=4)
    with pytest.raises(IllegalToken):
        advance(MaskState.start(spec), 2, vocab, spec.stop_phrases, spec.max_tokens)


def test_eos_hit_on_unconstrained_variable():
    vocab = char_vocab("a")
    spec = VariableSpec("X", max_tokens=4)
    state, verdict = advance(
        MaskState.start(spec), 0, vocab, spec.stop_phrases, spec.max_tokens
    )
    assert verdict.status == EOS_HIT
    # EOS contributes no text but counts as an emitted token
    assert state.partial_value == ""
    assert state.tokens_emitted == 1


def test_max_tokens_closes_unconstrained_variable():
    vocab = char_vocab("a")
    spec = VariableSpec("X", max_tokens=2)
    state = MaskState.start(spec)
    state, verdict = advance(state, 1, vocab, spec.stop_phrases, spec.max_tokens)
    assert verdict.status == CONTINUE
    state, verdict = advance(state, 1, vocab, spec.stop_phrases, spec.max_tokens)
    assert verdict.status == MAX_TOKENS
    assert state.partial_value == "aa"


def test_max_tokens_with_incomplete_member():
    vocab = char_vocab("ab")
    spec = VariableSpec("X", one_of=OneOf(("aab", "ab")), max_tokens=1)
    _, verdict = advance(
        MaskState.start(spec), 1, vocab, spec.stop_phrases, spec.max_tokens
    )
    assert verdict.status == MAX_TOKENS


def test_max_tokens_landing_on_member_completes():
    vocab = char_vocab("ab")
    spec = VariableSpec("X", one_of=OneOf(("ab", "aba")), max_tokens=2)
    state, _ = advance(
        MaskState.start(spec), 1, vocab, spec.stop_phrases, spec.max_tokens
    )
    _, verdict = advance(state, 2, vocab, spec.stop_phrases, spec.max_tokens)
    assert verdict.status == MEMBER_COMPLETE


@given(
    members=st.sets(
        st.text(alphabet="abc" + TOP, min_size=1, max_size=5), min_size=1
    ),
    probes=st.lists(st.text(alphabet="abcd" + TOP, max_size=6), max_size=20),
)
def test_prefix_index_matches_naive_scans(members, probes):
    index = PrefixIndex(sorted(members))
    for s in list(members) + probes:
        assert index.is_member(s) == (s in members)
        assert index.is_prefix(s) == any(m.startswith(s) for m in members)
        assert index.is_extendable(s) == any(
            m != s and m.startswith(s) for m in members
        )


@given(
    token_lengths=st.lists(st.integers(1, 3), min_size=1, max_size=8),
    phrase=st.text(alphabet="ab", min_size=1, max_size=3),
    data=st.data(),
)
def test_stop_detection_equals_naive_substring_search(token_lengths, phrase, data):
    """The verdict fires exactly when the phrase first occurs in the value."""
    alphabet = "ab"
    token_texts = [
        "".join(data.draw(st.sampled_from(alphabet)) for _ in range(n))
        for n in token_lengths
    ]
    vocab = Vocabulary(("",) + tuple(dict.fromkeys(token_texts)), 0)
    spec = VariableSpec("X", stop_phrases=(phrase,), max_tokens=len(token_texts) + 1)
    state = MaskState.start(spec)
    for text in token_texts:
        value = state.partial_value + text
        state, verdict = advance(
            state,
            vocab.index_of(text),
            vocab,
            spec.stop_phrases,
            spec.max_tokens,
        )
        assert (verdict.status == STOP_PHRASE) == (phrase in value)
        assert state.partial_value == value
        if verdict.closes_chunk:
            break


def walk_all_paths(spec: VariableSpec, vocab: Vocabulary) -> set[str]:
    """Exhaustively follow every masked path; collect completed values."""
    completed: set[str] = set()

    def rec(state: MaskState) -> None:
        try:
            mask = compute_mask(state, vocab)
        except DeadEnd:
            return
        for token in mask:
            new_state, verdict = advance(
                state, token, vocab, spec.stop_phrases, spec.max_tokens
            )
            if verdict.status == MEMBER_COMPLETE:
                completed.add(new_state.partial_value)
            elif verdict.status == CONTINUE:
                rec(new_state)

    rec(MaskState.start(spec))
    return completed


def test_every_member_is_reachable():
    vocab = char_vocab("abcde")
    members = ("a", "abc", "bd", "e", "ea")
    spec = VariableSpec("X", one_of=OneOf(members), max_tokens=4)
    assert walk_all_paths(spec, vocab) == set(members)


def test_completed_values_are_always_members():
    vocab = Vocabulary(("", "a", "b", "ab", "ba"), 0)
    members = ("ab", "aba", "bab")
    spec = VariableSpec("X", one_of=OneOf(members), max_tokens=4)
    completed = walk_all_paths(spec, vocab)
    assert completed <= set(members)
    assert completed == set(members)


def test_validate_value():
    spec = VariableSpec("X", one_of=OneOf(("a", "b")))
    validate_value(spec, "a")
    with pytest.raises(ValueError):
        validate_value(spec, "c")
    # unconstrained variables accept anything, including the empty string
    validate_value(VariableSpec("Y"), "")


# --- member-range masks against the full-vocabulary scan ---------------------


def reference_mask(state: MaskState, vocab: Vocabulary) -> frozenset[int]:
    """One prefix test per vocabulary token, EOS only at a complete member."""
    if state.index is None:
        return frozenset(range(len(vocab)))
    members = state.index.members
    partial = state.partial_value
    allowed = {
        i
        for i, text in enumerate(vocab.tokens)
        if i != vocab.eos_index and any(m.startswith(partial + text) for m in members)
    }
    if partial in members:
        allowed.add(vocab.eos_index)
    if not allowed:
        raise DeadEnd(f"no token extends {partial!r}")
    return frozenset(allowed)


@st.composite
def mask_vocabularies(draw) -> Vocabulary:
    """Multi-character tokens; EOS at any index, rendered as "" or as text."""
    texts = draw(
        st.lists(st.text(ALPHABET, min_size=1, max_size=3), max_size=8, unique=True)
    )
    eos_text = draw(
        st.just("") | st.text(ALPHABET, min_size=1, max_size=3).filter(
            lambda t: t not in texts
        )
    )
    eos = draw(st.integers(0, len(texts)))
    return Vocabulary(tuple(texts[:eos] + [eos_text] + texts[eos:]), eos)


@given(
    vocab=mask_vocabularies(),
    members=st.sets(st.text(ALPHABET, min_size=1, max_size=5), min_size=1, max_size=8),
    data=st.data(),
)
def test_member_range_mask_equals_full_scan(vocab, members, data):
    index = PrefixIndex(OneOf(tuple(members)).members)
    member = data.draw(st.sampled_from(index.members), "member")
    on_prefix = st.integers(0, len(member)).map(lambda n: member[:n])
    partial = data.draw(on_prefix | st.text(ALPHABET + "c", max_size=5), "partial")
    lo, hi = index.span(partial)
    starting = tuple(m for m in index.members if m.startswith(partial))
    assert index.members[lo:hi] == starting
    state = MaskState(partial_value=partial, tokens_emitted=0, index=index)
    try:
        want = reference_mask(state, vocab)
    except DeadEnd:
        with pytest.raises(DeadEnd):
            compute_mask(state, vocab)
    else:
        assert compute_mask(state, vocab) == want


# --- the decoders' per-decode OneOf index against compute_mask and advance ---


@settings(max_examples=150, deadline=None)
@given(
    vocab=mask_vocabularies(),
    members=st.sets(st.text(ALPHABET, min_size=1, max_size=5), min_size=1, max_size=8),
    max_tokens=st.integers(1, 4),
    data=st.data(),
)
def test_one_of_index_agrees_with_mask_and_advance(vocab, members, max_tokens, data):
    """On every partial value a walk of legal moves reaches, the index
    accepts exactly the mask's tokens, and each child's value, token count
    and closed or dead outcome are what ``advance`` makes of the token."""
    spec = VariableSpec("X", one_of=OneOf(tuple(members)), max_tokens=max_tokens)
    sketch = Sketch(name="s", chunks=(Chunk.variable(spec),))
    backend = TableLM(vocab, {}, default_row=[1 / len(vocab)] * len(vocab))
    eng = _Engine(StaticSketchSource(sketch), backend, DecoderConfig())
    h = eng.settle(Hypothesis())
    while True:
        state = h.open_state
        entry = _one_of_entry(state, vocab)
        accepted = {t for t in range(len(vocab)) if entry.accepts(t)}
        if accepted:
            assert compute_mask(state, vocab) == accepted
        else:
            with pytest.raises(DeadEnd):
                compute_mask(state, vocab)
        continuing = []
        for t in range(len(vocab)):
            try:
                want, verdict = advance(state, t, vocab, (), max_tokens)
            except IllegalToken:
                assert t not in accepted
                with pytest.raises(IllegalToken):
                    eng.apply_token(h, t, -1.0)
                continue
            assert t in accepted
            child = eng.apply_token(h, t, -1.0)
            assert child.state == want
            dead = verdict.status == MAX_TOKENS
            assert (child.closed, child.dead) == (verdict.closes_chunk and not dead, dead)
            if not verdict.closes_chunk:
                continuing.append(child)
        if not continuing:
            return
        h = data.draw(st.sampled_from(continuing), "next").hyp
