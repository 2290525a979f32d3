"""Autoregressive LM backends: vocabulary handling, table and n-gram models.

The backend protocol (``LMBackend``) is three methods:

- ``next_distribution(prefix, text=None)``: the next-token distribution
  after a prefix;
- ``score_forced(prefix, continuation, text=None)``: per-token
  log-probabilities of a forced continuation, computed in one pass over it
  rather than by one ``next_distribution`` call per token;
- ``tokenize(text)``: token ids for forced text, as the tuple its
  vocabulary keeps (a FIFO of ``TOKENIZE_MEMO_SIZE`` texts): the local
  backends segment a text once, longest token first (``greedy_tokenize``),
  and the remote one asks its service once, by the echo that scores
  forced text.

Each vocabulary renders its own tokens: ``vocab.pieces[t]`` is token t's
text, and ``detokenize`` joins pieces.  ``text``, when given, is
``detokenize(prefix)``, which the caller already holds: the decoders carry
each hypothesis's text along with its tokens.  A backend that conditions on
the prefix string (the table model, the remote service) reads it instead of
joining the prefix again; one that conditions on token ids ignores it; and
a caller that passes none gets the join.  Two rendering rules make the
carried text equal to the join: a text grows by one piece per token; and
forced text round-trips, ``detokenize(tokenize(s)) == s``, so a forced
chunk adds its own text.

A backend declares nothing else about itself: each distribution says
whether it covers the whole vocabulary (``TokenDistribution.complete``) or
is a truncated top-k slice, as a remote service returns it, and the
decoders filter it accordingly.

A distribution is read best-first, by descending log-probability and then
ascending id, through four reads, which are all the decoders make:

- ``entries``: every (id, log-probability) pair;
- ``top(n)``: the n best entries;
- ``first(n, accept)``: the n best entries whose ids pass a predicate, or
  None when only a full mask can tell them;
- ``allowed(mask)``: the entries whose ids are in a token mask.

The table model and the remote backend build ``entries`` up front
(``TokenDistribution.from_pairs``).  The n-gram model's distribution is
sparse: it reads the context's row, the observed followers sorted
best-first, which the model builds once per context and keeps, and builds
``entries`` only when asked.  ``top(n)`` slices the row and then takes
unseen ids in id order (every unseen token shares one smaller
probability), ``first`` tests only the row's ids, and ``allowed(mask)``
filters the row by the mask and sorts only the mask's unseen ids, so no
read but ``entries`` costs the vocabulary.

Local backends expose complete next-token distributions over a fixed
vocabulary.  Both exist to create exactly reproducible desk-scale
distributions -- the table model by explicit enumeration, the n-gram model
by counting a small corpus.

The table models (``StateTableLM``) keep one row per model state: a row
is validated, logged and sorted on its state's first read, and kept for
the backend's life.  Forced scoring finds each forced token's state as
``next_distribution`` does, from the text grown so far, so the two reads
cannot disagree.  ``TableLM``'s state is the key text when its mapping
holds a row for it, and the default row otherwise, so that memo holds at
most one entry per row of the model file plus one.  The sudoku and fig1
models key each row by a small state of the text, so their memos are
bounded by the model's states.  No backend here keys a row by the whole
text, since a decode may read any number of texts.
"""
from __future__ import annotations

import json
import math
import os
import threading
from collections import Counter
from collections.abc import Hashable
from dataclasses import dataclass
from functools import reduce
from itertools import chain, filterfalse, islice, repeat
from operator import add
from typing import AbstractSet, Callable, Iterable, Mapping, Sequence

from .errors import ModelFileError, UnsegmentableText

NEG_INF = float("-inf")

# forced texts whose token ids a vocabulary keeps, oldest evicted first
TOKENIZE_MEMO_SIZE = 1024

_MEMO_LOCK = threading.Lock()


def _remember(memo: dict, key: Hashable, value, size: int):
    """Keep ``key -> value`` in a FIFO memo of at most ``size`` entries and
    return ``value``.  Lookups take no lock; the lock keeps one thread at a
    time evicting and inserting, so two threads never evict one key."""
    with _MEMO_LOCK:
        while len(memo) >= size:
            del memo[next(iter(memo))]
        memo[key] = value
    return value


def ordered_sum(values: Iterable[float]) -> float:
    """The floats added left to right from 0.0.

    From Python 3.12 the built-in ``sum`` compensates float rounding, so
    its last bits differ from 3.10's and 3.11's.  Every score, model row
    and report mean is added with this instead, so a decode has the same
    float bits on every supported Python.
    """
    return reduce(add, values, 0.0)


@dataclass(frozen=True)
class Vocabulary:
    """Finite token inventory with a designated EOS token."""

    tokens: tuple[str, ...]
    eos_index: int

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not (0 <= self.eos_index < len(self.tokens)):
            raise ValueError("eos_index out of range")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("token strings must be unique")
        for i, t in enumerate(self.tokens):
            if t == "" and i != self.eos_index:
                raise ValueError("only the EOS token may render as the empty string")
        # each token's rendering, EOS as its string
        object.__setattr__(self, "pieces", self.tokens)
        object.__setattr__(
            self, "_by_text", {t: i for i, t in enumerate(self.tokens)}
        )
        # the longest token text bounds the lookups of a member-range mask
        object.__setattr__(self, "_max_len", max(map(len, self.tokens)))
        # greedy segmentation candidates, keyed by first character and
        # longest-first within a key; EOS is excluded so forced text can
        # never smuggle an end-of-sequence token
        by_length = sorted(
            (i for i, t in enumerate(self.tokens) if t != "" and i != self.eos_index),
            key=lambda i: (-len(self.tokens[i]), i),
        )
        by_first: dict[str, list[int]] = {}
        for i in by_length:
            by_first.setdefault(self.tokens[i][0], []).append(i)
        object.__setattr__(
            self, "_by_first", {c: tuple(ids) for c, ids in by_first.items()}
        )
        # forced text -> its greedy segmentation, for LMBackend.tokenize
        object.__setattr__(self, "_tokenized", {})
        # the decoders' OneOf index over this vocabulary
        object.__setattr__(self, "_one_of", {})

    def __len__(self) -> int:
        return len(self.tokens)

    def token_text(self, index: int) -> str:
        return self.tokens[index]

    def index_of(self, text: str) -> int | None:
        return self._by_text.get(text)


def greedy_tokenize(vocab: Vocabulary, text: str) -> list[int]:
    """Segment text by repeatedly taking the longest matching token.

    Ties cannot occur (token strings are unique).  Raises
    UnsegmentableText at the first position with no match.  Each position
    tries the tokens that start with its character, longest first.
    ``LMBackend.tokenize`` keeps each segmentation on the vocabulary, so a
    backend segments a forced text once.
    """
    by_first = vocab._by_first
    out: list[int] = []
    pos = 0
    n = len(text)
    tokens = vocab.tokens
    while pos < n:
        for i in by_first.get(text[pos], ()):
            tok = tokens[i]
            if text.startswith(tok, pos):
                out.append(i)
                pos += len(tok)
                break
        else:
            raise UnsegmentableText(text, pos)
    return out


def _best_first(pair: tuple[int, float]) -> tuple[float, int]:
    return (-pair[1], pair[0])


class TokenDistribution:
    """Next-token log-probabilities, sorted best-first.

    ``complete`` means the entries cover the whole vocabulary and their
    probabilities sum to one; truncated (top-k) distributions set it False.
    """

    __slots__ = ("_entries", "complete")

    def __init__(self, entries: Sequence[tuple[int, float]], complete: bool):
        self._entries = tuple(entries)
        self.complete = complete

    @classmethod
    def from_pairs(
        cls, pairs: Sequence[tuple[int, float]], complete: bool
    ) -> "TokenDistribution":
        return cls(sorted(pairs, key=_best_first), complete)

    @property
    def entries(self) -> tuple[tuple[int, float], ...]:
        return self._entries

    def top(self, n: int) -> tuple[tuple[int, float], ...]:
        """The n best entries: ``entries[:n]``."""
        return self.entries[:n]

    def first(self, n: int, accept: Callable[[int], bool]) -> tuple | None:
        """The n best entries whose ids pass ``accept``; fewer if fewer do."""
        return tuple(islice((p for p in self.entries if accept(p[0])), n))

    def allowed(self, mask: AbstractSet[int]) -> tuple[tuple[int, float], ...]:
        """The entries whose ids are in ``mask``, best-first."""
        return tuple(p for p in self.entries if p[0] in mask)

    def __repr__(self):
        return f"TokenDistribution(entries={self.entries!r}, complete={self.complete!r})"


class _SmoothedCounts(TokenDistribution):
    """Add-1-smoothed distribution of one n-gram context, read from the
    context's row without building its V entries.

    With T the follower total and V the vocabulary size, token i has
    probability (c_i+1)/(T+V), c_i its count.  An observed follower
    (c_i >= 1) has at least 2/(T+V), strictly above the 1/(T+V) every
    unseen token shares, so the best-first order is the row -- the
    observed followers and their log-probabilities sorted by
    ``(-logprob, id)``, which ``NGramLM`` builds once per context and
    shares between views -- then the unseen ids ascending.  Each
    log-probability is the float ``NGramLM.score_forced`` computes.
    """

    __slots__ = ("_row", "_counts", "_total", "_v")

    def __init__(
        self, row: tuple[tuple[int, float], ...], counts: Counter, total: int, v: int
    ):
        self._entries = None
        self.complete = True
        self._row = row
        self._counts = counts
        self._total = total
        self._v = v

    @property
    def entries(self) -> tuple[tuple[int, float], ...]:
        if self._entries is None:
            self._entries = self.top(self._v)
        return self._entries

    def _unseen_lp(self) -> float:
        return math.log(1 / (self._total + self._v))

    def top(self, n: int) -> tuple[tuple[int, float], ...]:
        row = self._row
        if n <= len(row):
            return row[:n]
        unseen = filterfalse(self._counts.__contains__, range(self._v))
        return row + tuple(
            zip(islice(unseen, n - len(row)), repeat(self._unseen_lp()))
        )

    def first(self, n: int, accept: Callable[[int], bool]) -> tuple | None:
        """The n >= 1 best accepted observed followers, which outrank every
        unseen id; None when fewer than n pass."""
        out = []
        for p in self._row:
            if accept(p[0]):
                out.append(p)
                if len(out) == n:
                    return tuple(out)
        return None

    def allowed(self, mask: AbstractSet[int]) -> tuple[tuple[int, float], ...]:
        counts = self._counts
        seen = [p for p in self._row if p[0] in mask]
        unseen = sorted(i for i in mask if i not in counts)
        return tuple(chain(seen, zip(unseen, repeat(self._unseen_lp()))))


class LMBackend:
    """Base class: autoregressive scoring over a token vocabulary."""

    vocab: Vocabulary

    def next_distribution(
        self, prefix: Sequence[int], text: str | None = None
    ) -> TokenDistribution:
        """The next-token distribution after ``prefix``; ``text``, when
        given, is ``detokenize(prefix)``."""
        raise NotImplementedError

    def score_forced(
        self,
        prefix: Sequence[int],
        continuation: Sequence[int],
        text: str | None = None,
    ) -> list[float]:
        """Per-token log-probabilities of a forced continuation.

        Entry i equals ``next_distribution(prefix + continuation[:i])``'s
        log-probability of ``continuation[i]``, -inf where it has none.
        ``text``, when given, is ``detokenize(prefix)``.
        """
        raise NotImplementedError

    def tokenize(self, text: str) -> tuple[int, ...]:
        """``_segment``, kept per vocabulary: the tuple it keeps."""
        vocab = self.vocab
        ids = vocab._tokenized.get(text)
        if ids is None:
            ids = tuple(self._segment(text))
            _remember(vocab._tokenized, text, ids, TOKENIZE_MEMO_SIZE)
        return ids

    def _segment(self, text: str) -> list[int]:
        """Token ids of a text that ``tokenize`` has not kept."""
        return greedy_tokenize(self.vocab, text)

    def detokenize(self, tokens: Sequence[int]) -> str:
        """The tokens' pieces (``vocab.pieces``) concatenated."""
        return "".join(map(self.vocab.pieces.__getitem__, tokens))


def _logify(probs: Sequence[float]) -> tuple[float, ...]:
    return tuple(math.log(p) if p > 0.0 else NEG_INF for p in probs)


def _distribution(probs: Sequence[float]) -> TokenDistribution:
    return TokenDistribution.from_pairs(list(enumerate(_logify(probs))), complete=True)


def _check_row(probs: Sequence[float], where: str) -> None:
    # ``not (p >= 0.0)`` also rejects NaN, which JSON files may spell out
    if any(
        isinstance(p, bool) or not isinstance(p, (int, float)) or not (p >= 0.0)
        for p in probs
    ):
        raise ModelFileError(f"{where}: probabilities must be non-negative numbers")
    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-9:
        raise ModelFileError(f"{where}: probabilities sum to {total!r}, not 1")


class StateTableLM(LMBackend):
    """Lookup model whose row after a text depends only on a small model
    state of that text.

    ``state(text)`` names the state, and ``row(text)`` builds the row for
    any text in it.  A state's row is built on the state's first read,
    length-checked, validated, logged and sorted once, and kept for the
    backend's life, so the kept rows are bounded by the model's states,
    not by the texts read.  A state whose row is invalid keeps nothing and
    raises ModelFileError on every read.  The key text is ``text`` when a
    caller passes it, and else ``detokenize(prefix)``; ``score_forced``
    grows it by each forced token's text and reads the state of each
    grown text.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        state: Callable[[str], Hashable],
        row: Callable[[str], Sequence[float]],
    ):
        self.vocab = vocab
        self._state = state
        self._row = row
        # state -> (sorted distribution, log-probabilities by id)
        self._kept: dict[Hashable, tuple[TokenDistribution, tuple[float, ...]]] = {}

    def _read(
        self, state: Hashable, text: str
    ) -> tuple[TokenDistribution, tuple[float, ...]]:
        kept = self._kept.get(state)
        if kept is None:
            row = self._row(text)
            if len(row) != len(self.vocab):
                raise ModelFileError(f"row of model state {state!r} has wrong length")
            _check_row(row, f"model state {state!r}")
            lps = _logify(row)
            dist = TokenDistribution.from_pairs(list(enumerate(lps)), complete=True)
            kept = self._kept[state] = (dist, lps)
        return kept

    def next_distribution(
        self, prefix: Sequence[int], text: str | None = None
    ) -> TokenDistribution:
        key = self.detokenize(prefix) if text is None else text
        return self._read(self._state(key), key)[0]

    def score_forced(
        self,
        prefix: Sequence[int],
        continuation: Sequence[int],
        text: str | None = None,
    ) -> list[float]:
        """One kept row per forced token; the key grows by that token's text."""
        tokens = self.vocab.tokens
        key = self.detokenize(prefix) if text is None else text
        out: list[float] = []
        for t in continuation:
            out.append(self._read(self._state(key), key)[1][t])
            key += tokens[t]
        return out


class TableLM(StateTableLM):
    """Lookup model: the detokenized prefix string selects a probability row.

    The key is the ``text`` a caller passes (the decoders pass each
    hypothesis's carried text), or else ``detokenize(prefix)``.  Both
    spell every token, EOS included, by its vocabulary string, and forced
    text round-trips through ``tokenize`` (greedy segmentation spells the
    text exactly), so the two keys are equal.

    ``rows`` maps prefix strings to rows; a miss falls back to the default
    row.  The mapping and its rows are copied and every row validated when
    the model is built, so it is read as it stood then.  A key's model
    state is the key itself when the mapping holds it, and None (the
    default row) otherwise, so the kept rows are at most the mapping's rows
    plus one.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        rows: Mapping[str, Sequence[float]],
        default_row: Sequence[float],
    ):
        rows = {key: tuple(row) for key, row in rows.items()}
        default = tuple(default_row)
        _check_row(default, "default row")
        if len(default) != len(vocab):
            raise ModelFileError("default row length differs from vocabulary size")
        for key, row in rows.items():
            if len(row) != len(vocab):
                raise ModelFileError(f"row for context {key!r} has wrong length")
            _check_row(row, f"context {key!r}")
        super().__init__(
            vocab,
            lambda text: text if text in rows else None,
            lambda text: rows.get(text, default),
        )

    @classmethod
    def from_json(cls, data: dict) -> "TableLM":
        for key in data:
            if key not in {"vocab", "eos", "contexts", "default"}:
                raise ModelFileError(f"unknown key {key!r} in table model")
        tokens, eos = data.get("vocab"), data.get("eos")
        if not isinstance(tokens, list) or any(not isinstance(t, str) for t in tokens):
            raise ModelFileError("'vocab' must be a list of strings")
        if isinstance(eos, bool) or not isinstance(eos, int):
            raise ModelFileError("'eos' must be an integer")
        try:
            vocab = Vocabulary(tuple(tokens), eos)
        except ValueError as e:
            raise ModelFileError(f"bad vocabulary: {e}") from e
        contexts = data.get("contexts", {})
        if not isinstance(contexts, dict):
            raise ModelFileError("'contexts' must be an object")
        if "default" not in data:
            raise ModelFileError("table model requires a 'default' row")
        if not isinstance(data["default"], list):
            raise ModelFileError("the default row must be a list")
        for key, row in contexts.items():
            if not isinstance(row, list):
                raise ModelFileError(f"row for context {key!r} must be a list")
        return cls(vocab, contexts, data["default"])

    @classmethod
    def from_file(cls, path: str) -> "TableLM":
        return cls.from_json(_read_object(path, "table model"))


class _Context:
    """One n-gram context: its follower counts, their total (summed once,
    here), and its best-first row, None until the context is first read."""

    __slots__ = ("counts", "total", "row")

    def __init__(self, counts: Counter):
        self.counts = counts
        self.total = sum(counts.values())
        self.row: tuple[tuple[int, float], ...] | None = None


class NGramLM(LMBackend):
    """Fixed-order n-gram model with add-1 smoothing over the vocabulary.

    Contexts never observed in the corpus back off to the add-1-smoothed
    unigram distribution; prefixes shorter than the context length use the
    same backoff.

    Each context it resolves a prefix to keeps one best-first row: its
    observed followers with their log-probabilities, sorted once, on the
    context's first read, and kept for the model's life.  The rows live on
    the contexts, so they are bounded by the model: at most one per
    observed (order-1)-gram plus the backoff's.
    """

    def __init__(self, vocab: Vocabulary, order: int, corpus_tokens: Sequence[int]):
        if order < 1:
            raise ModelFileError("order must be >= 1")
        self.vocab = vocab
        self.order = order
        self._v = len(vocab)
        self._unigram = _Context(Counter(corpus_tokens))
        follow: dict[tuple[int, ...], Counter] = {}
        k = order - 1
        for i in range(k, len(corpus_tokens)):
            ctx = tuple(corpus_tokens[i - k : i])
            follow.setdefault(ctx, Counter())[corpus_tokens[i]] += 1
        self._follow = {ctx: _Context(counts) for ctx, counts in follow.items()}

    def _context(self, prefix: Sequence[int]) -> _Context:
        """The prefix's observed context, or the unigram backoff."""
        k = self.order - 1
        if len(prefix) >= k:
            hit = self._follow.get(tuple(prefix[len(prefix) - k :]))
            if hit is not None:
                return hit
        return self._unigram

    def next_distribution(
        self, prefix: Sequence[int], text: str | None = None
    ) -> TokenDistribution:
        """A sparse view of the context's kept row: nothing V-wide is
        built.  The model reads token ids, so ``text`` is ignored."""
        c = self._context(prefix)
        v = self._v
        row = c.row
        if row is None:
            denom = c.total + v
            row = c.row = tuple(
                sorted(
                    ((i, math.log((n + 1) / denom)) for i, n in c.counts.items()),
                    key=_best_first,
                )
            )
        return _SmoothedCounts(row, c.counts, c.total, v)

    def score_forced(
        self,
        prefix: Sequence[int],
        continuation: Sequence[int],
        text: str | None = None,
    ) -> list[float]:
        """Smoothed probability of each forced token alone (never zero);
        the context slides over the last order-1 tokens.  ``text`` is
        ignored."""
        k = self.order - 1
        v = self._v
        ctx = list(prefix[len(prefix) - k :]) if len(prefix) >= k else list(prefix)
        out: list[float] = []
        for t in continuation:
            c = self._context(ctx)
            out.append(math.log((c.counts.get(t, 0) + 1) / (c.total + v)))
            ctx.append(t)
            if len(ctx) > k:
                del ctx[0]
        return out

    @classmethod
    def from_config(cls, data: dict, base_dir: str = ".") -> "NGramLM":
        for key in data:
            if key not in {"order", "vocab", "corpus_path", "tokenizer"}:
                raise ModelFileError(f"unknown key {key!r} in n-gram config")
        for key in ("order", "vocab", "corpus_path", "tokenizer"):
            if key not in data:
                raise ModelFileError(f"n-gram config is missing {key!r}")
        order = data["order"]
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise ModelFileError("'order' must be a positive integer")
        tokens = data["vocab"]
        if not isinstance(tokens, list) or any(not isinstance(t, str) for t in tokens):
            raise ModelFileError("'vocab' must be a list of strings")
        # the config declares no EOS: an empty-string entry serves as EOS,
        # and one is appended when absent
        tokens = list(tokens)
        if "" in tokens:
            eos = tokens.index("")
        else:
            eos = len(tokens)
            tokens.append("")
        try:
            vocab = Vocabulary(tuple(tokens), eos)
        except ValueError as e:
            raise ModelFileError(f"bad vocabulary: {e}") from e
        tokenizer = data["tokenizer"]
        if tokenizer not in ("char", "word"):
            raise ModelFileError("'tokenizer' must be 'char' or 'word'")
        if not isinstance(data["corpus_path"], str):
            raise ModelFileError("'corpus_path' must be a string")
        corpus_path = os.path.join(base_dir, data["corpus_path"])
        try:
            with open(corpus_path, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            raise ModelFileError(f"cannot read corpus {corpus_path}: {e}") from e
        except UnicodeDecodeError as e:
            raise ModelFileError(f"corpus {corpus_path} is not UTF-8 text: {e}") from e
        pieces = list(text) if tokenizer == "char" else text.split()
        corpus: list[int] = []
        for piece in pieces:
            idx = vocab.index_of(piece)
            if idx is None:
                raise ModelFileError(f"corpus token {piece!r} is not in the vocabulary")
            corpus.append(idx)
        return cls(vocab, order, corpus)

    @classmethod
    def from_file(cls, path: str) -> "NGramLM":
        data = _read_object(path, "n-gram config")
        return cls.from_config(data, base_dir=os.path.dirname(path) or ".")


def _read_object(path: str, what: str) -> dict:
    """The JSON object in a model file; a file that cannot be read, is not
    UTF-8 JSON, or holds no object raises ModelFileError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        raise ModelFileError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ModelFileError(f"{path} is not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise ModelFileError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ModelFileError(f"{path}: {what} must be a JSON object")
    return data
