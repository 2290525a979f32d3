"""Token masks and chunk-termination rules for variable decoding.

Variables terminate in exactly one of five ways: a stop phrase appeared
in the value, a OneOf member was completed, EOS was emitted, the token
budget ran out, or decoding simply continues.  OneOf constraints are
enforced with token masks; stop phrases are ignored inside OneOf
variables.

A mask is computed from the member range, not by scanning the
vocabulary: the sorted members that start with the partial value form
one contiguous range found by bisection, and only the next few
characters of those members are looked up as token texts.  The cost of
a constrained step thus follows the size of that range and the longest
token, and opening a OneOf variable builds no index.  Stop phrases are
looked for only in the suffix the last token could have completed.

The OneOf rule is written once, in ``one_of_move``.  A move does not
depend on the chunk's token count, so the decoders keep moves and masks in
one bounded index per vocabulary, keyed by (members, partial value), and
each ``one_of_step`` under it by token count and budget; this module keeps
nothing.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DeadEnd, IllegalToken
from .sketch import VariableSpec

CONTINUE = "continue"
STOP_PHRASE = "stop_phrase"
MEMBER_COMPLETE = "member_complete"
EOS_HIT = "eos"
MAX_TOKENS = "max_tokens"


@dataclass(frozen=True)
class TerminationVerdict:
    """Outcome of appending one token to an open variable chunk."""

    status: str
    phrase: str | None = None

    @property
    def closes_chunk(self) -> bool:
        return self.status != CONTINUE


VERDICT_CONTINUE = TerminationVerdict(CONTINUE)
VERDICT_MEMBER = TerminationVerdict(MEMBER_COMPLETE)
VERDICT_MAX_TOKENS = TerminationVerdict(MAX_TOKENS)


class PrefixIndex:
    """Sorted OneOf members answering prefix queries by bisection.

    The members that start with a string form one contiguous run of the
    sorted tuple, so every query is a bisection and no index is built.
    ``members`` must be sorted, as ``OneOf.members`` always is.
    """

    __slots__ = ("members",)

    def __init__(self, members: Iterable[str]):
        self.members = tuple(members)

    def span(self, s: str) -> tuple[int, int]:
        """Index range of the members that start with s."""
        n = len(s)
        lo = bisect_left(self.members, s)
        return lo, bisect_right(self.members, s, lo, key=lambda m: m[:n])

    def is_prefix(self, s: str) -> bool:
        """True when s is a prefix of at least one member."""
        i = bisect_left(self.members, s)
        return i < len(self.members) and self.members[i].startswith(s)

    def is_member(self, s: str) -> bool:
        i = bisect_left(self.members, s)
        return i < len(self.members) and self.members[i] == s

    def is_extendable(self, s: str) -> bool:
        """True when some member is strictly longer than s and starts with it."""
        i = bisect_right(self.members, s)
        return i < len(self.members) and self.members[i].startswith(s)


@dataclass(frozen=True)
class MaskState:
    """Progress through one variable chunk: value so far plus token count."""

    partial_value: str = ""
    tokens_emitted: int = 0
    index: PrefixIndex | None = None

    @classmethod
    def start(cls, spec: VariableSpec) -> "MaskState":
        index = PrefixIndex(spec.one_of.members) if spec.one_of is not None else None
        return cls(partial_value="", tokens_emitted=0, index=index)

    @property
    def constrained(self) -> bool:
        return self.index is not None


def compute_mask(state: MaskState, vocab) -> frozenset[int]:
    """Token indices that may legally extend the partial value.

    Unconstrained variables allow every token including EOS.  Under OneOf,
    a token is allowed iff partial + token text is still a prefix of some
    member, and EOS is allowed only when the partial is itself a complete
    member.  Raises DeadEnd when nothing is allowed and the partial is not
    a complete member.

    Only the members that start with the partial are visited: the next
    1..longest-token-length characters of each are matched against the
    token texts.
    """
    if state.index is None:
        return frozenset(range(len(vocab)))
    partial = state.partial_value
    members = state.index.members
    lo, hi = state.index.span(partial)
    start = len(partial)
    limit = start + vocab._max_len
    heads = {
        m[start:end]
        for m in members[lo:hi]
        for end in range(start + 1, min(len(m), limit) + 1)
    }
    by_text = vocab._by_text
    allowed = {by_text[t] for t in heads & by_text.keys()}
    # EOS never extends the value, whatever text it renders as
    allowed.discard(vocab.eos_index)
    if lo < hi and members[lo] == partial:
        allowed.add(vocab.eos_index)
    if not allowed:
        raise DeadEnd(
            f"no token extends partial value {partial!r} toward any member"
        )
    return frozenset(allowed)


def one_of_move(
    state: MaskState, token_index: int, vocab
) -> tuple[str, bool, bool] | None:
    """(new value, closes the chunk, is a member) for a token appended to
    a OneOf partial value, or None when the token is not in its mask.

    EOS adds no text and closes a complete member; any other token must
    leave a prefix of a member, and closes one that cannot be extended.
    """
    index, partial = state.index, state.partial_value
    if token_index == vocab.eos_index:
        return (partial, True, True) if index.is_member(partial) else None
    value = partial + vocab.token_text(token_index)
    if not index.is_prefix(value):
        return None
    member = index.is_member(value)
    return value, member and not index.is_extendable(value), member


def one_of_step(
    state: MaskState, move: tuple[str, bool, bool], max_tokens: int
) -> tuple[MaskState, TerminationVerdict]:
    """The state and verdict after a legal ``one_of_move``; at the token
    budget a member completes and a non-member is cut off."""
    value, closes, member = move
    new = MaskState(value, state.tokens_emitted + 1, state.index)
    if closes or new.tokens_emitted >= max_tokens:
        return new, VERDICT_MEMBER if member else VERDICT_MAX_TOKENS
    return new, VERDICT_CONTINUE


def _first_stop_hit(
    value: str, added: int, stop_phrases: Sequence[str]
) -> str | None:
    # substring, not suffix: a phrase may complete mid-token, and the whole
    # token is kept either way; earliest-added phrase wins ties.  The value
    # before the last ``added`` characters held no phrase (its chunk was
    # still open), so a hit overlaps them and lies in the suffix window.
    for phrase in stop_phrases:
        if phrase in value[-(added + len(phrase) - 1) :]:
            return phrase
    return None


def advance(
    state: MaskState,
    token_index: int,
    vocab,
    stop_phrases: Sequence[str],
    max_tokens: int,
) -> tuple[MaskState, TerminationVerdict]:
    """Append one token to the open chunk and classify the outcome.

    EOS contributes no text: the value excludes its rendering, though the
    caller still accounts for its log-probability.  Stop phrases fire on
    the detokenized value; the whole matching token is retained.  OneOf
    takes precedence over stop phrases, and a member that can no longer be
    extended completes immediately.
    """
    is_eos = token_index == vocab.eos_index
    if state.index is not None:
        move = one_of_move(state, token_index, vocab)
        if move is None:
            what = "EOS" if is_eos else repr(vocab.token_text(token_index))
            raise IllegalToken(f"{what} leaves every member ({state.partial_value!r})")
        return one_of_step(state, move, max_tokens)

    if is_eos:
        new = MaskState(state.partial_value, state.tokens_emitted + 1, None)
        return new, TerminationVerdict(EOS_HIT)
    text = vocab.token_text(token_index)
    value = state.partial_value + text
    new = MaskState(value, state.tokens_emitted + 1, None)
    phrase = _first_stop_hit(value, len(text), stop_phrases)
    if phrase is not None:
        return new, TerminationVerdict(STOP_PHRASE, phrase=phrase)
    if new.tokens_emitted >= max_tokens:
        return new, VERDICT_MAX_TOKENS
    return new, VERDICT_CONTINUE


def validate_value(spec: VariableSpec, value: str) -> None:
    """Check a finished value against the variable's constraint.

    Used when scoring externally supplied bindings.  Raises
    ConstraintViolation via the caller's wrapper; here we raise ValueError
    to stay context-free.
    """
    if spec.one_of is not None and value not in spec.one_of.members:
        raise ValueError(f"value {value!r} is not a member of the OneOf set")
