"""Autoregressive LM backends: vocabulary handling, table and n-gram models.

The backend protocol (``LMBackend``) is three methods:

- ``next_distribution(prefix, text=None)``: the next-token distribution
  after a prefix;
- ``score_forced(prefix, continuation, text=None)``: per-token
  log-probabilities of a forced continuation, computed in one pass over it
  rather than by one ``next_distribution`` call per token;
- ``tokenize(text)``: token ids for forced text.

``text``, when given, is ``detokenize(prefix)``, which the caller already
holds: the decoders carry each hypothesis's text along with its tokens.  A
backend that conditions on the prefix string (the table model, the remote
service) reads it instead of joining the prefix again; one that conditions
on token ids ignores it; and a caller that passes none gets the join.  Two
rendering rules make the carried text equal to the join: ``detokenize``
concatenates per-token pieces, ``detokenize((t,))`` for each token t, so a
text grows by one piece per token; and forced text round-trips,
``detokenize(tokenize(s)) == s``, so a forced chunk adds its own text.

A backend declares nothing else about itself: each distribution says
whether it covers the whole vocabulary (``TokenDistribution.complete``) or
is a truncated top-k slice, as a remote service returns it, and the
decoders filter it accordingly.

A distribution is read best-first, by descending log-probability and then
ascending id, through four operations:

- ``logprob(i)``: token i's log-probability, None when it has none;
- ``top(n)``: the n best entries;
- ``first(n, accept)``: the n best entries whose ids pass a predicate, or
  None when only a full mask can tell them;
- ``allowed(mask)``: the entries whose ids are in a token mask, best-first.

``entries``, the whole best-first tuple, is there too.  The table model and
the remote backend build it up front (``TokenDistribution.from_pairs``).
The n-gram model's distribution is sparse: it keeps the context's follower
counts and builds ``entries`` only when asked.  ``logprob`` is one lookup,
``top(n)`` takes the sorted observed followers and then unseen ids in id
order (every unseen token shares one smaller probability), ``first`` tests
only the observed followers, and ``allowed(mask)`` sorts only the mask's
ids, so no step costs the vocabulary.

Local backends expose complete next-token distributions over a fixed
vocabulary.  Both exist to create exactly reproducible desk-scale
distributions -- the table model by explicit enumeration, the n-gram model
by counting a small corpus.

The table model keeps the sorted distribution of every row it serves from
its mapping, and of its default row, so a row is logged and sorted once
per backend: that memo holds at most one entry per row of the model file
plus one.  Rows served by a virtual (callable) lookup are sorted on every
call and kept nowhere, because a lookup may serve any number of them.
"""
from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain, filterfalse, islice, repeat
from operator import add
from typing import AbstractSet, Callable, Iterable, Mapping, Sequence

from .errors import ModelFileError, UnsegmentableText

NEG_INF = float("-inf")


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

    def __len__(self) -> int:
        return len(self.tokens)

    def token_text(self, index: int) -> str:
        return self.tokens[index]

    def index_of(self, text: str) -> int | None:
        return self._by_text.get(text)


def greedy_tokenize(vocab: Vocabulary, text: str) -> list[int]:
    """Segment text by repeatedly taking the longest matching token.

    Ties cannot occur (token strings are unique).  Raises
    UnsegmentableText at the first position with no match.
    """
    out: list[int] = []
    pos = 0
    n = len(text)
    tokens = vocab.tokens
    by_first = vocab._by_first
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
    Two distributions are equal when their entries and ``complete`` are,
    whichever of them is sparse.
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

    def logprob(self, index: int) -> float | None:
        for i, lp in self.entries:
            if i == index:
                return lp
        return None

    def top(self, n: int) -> tuple[tuple[int, float], ...]:
        """The n best entries: ``entries[:n]``."""
        return self.entries[:n]

    def first(self, n: int, accept: Callable[[int], bool]) -> tuple | None:
        """The n best entries whose ids pass ``accept``; fewer if fewer do."""
        return tuple(islice((p for p in self.entries if accept(p[0])), n))

    def allowed(self, mask: AbstractSet[int]) -> tuple[tuple[int, float], ...]:
        """The entries whose ids are in ``mask``, best-first."""
        return tuple(p for p in self.entries if p[0] in mask)

    def best(self) -> tuple[int, float]:
        return self.top(1)[0]

    def __eq__(self, other):
        if not isinstance(other, TokenDistribution):
            return NotImplemented
        return self.complete == other.complete and self.entries == other.entries

    def __hash__(self):
        return hash((self.entries, self.complete))

    def __repr__(self):
        return f"TokenDistribution(entries={self.entries!r}, complete={self.complete!r})"


class _SmoothedCounts(TokenDistribution):
    """Add-1-smoothed distribution over one context's follower counts,
    read without building its V entries.

    With T the follower total and V the vocabulary size, token i has
    probability (c_i+1)/(T+V), c_i its count.  An observed follower
    (c_i >= 1) has at least 2/(T+V), strictly above the 1/(T+V) every
    unseen token shares, so the best-first order is the observed followers
    sorted by ``(-logprob, id)``, then the unseen ids ascending.  Each
    log-probability is the float ``NGramLM.score_forced`` computes.
    """

    __slots__ = ("_counts", "_total", "_v")

    def __init__(self, counts: Counter, total: int, v: int):
        self._entries = None
        self.complete = True
        self._counts = counts
        self._total = total
        self._v = v

    @property
    def entries(self) -> tuple[tuple[int, float], ...]:
        if self._entries is None:
            self._entries = self.top(self._v)
        return self._entries

    def logprob(self, index: int) -> float | None:
        if not 0 <= index < self._v:
            return None
        return math.log((self._counts.get(index, 0) + 1) / (self._total + self._v))

    def _unseen_lp(self) -> float:
        return math.log(1 / (self._total + self._v))

    def _sorted_seen(self, ids) -> list[tuple[int, float]]:
        """Observed followers among ids, best-first."""
        counts, denom = self._counts, self._total + self._v
        return sorted(
            ((i, math.log((counts[i] + 1) / denom)) for i in ids), key=_best_first
        )

    def top(self, n: int) -> tuple[tuple[int, float], ...]:
        seen = self._sorted_seen(self._counts)
        if n <= len(seen):
            return tuple(seen[:n])
        unseen = filterfalse(self._counts.__contains__, range(self._v))
        return tuple(
            chain(seen, zip(islice(unseen, n - len(seen)), repeat(self._unseen_lp())))
        )

    def first(self, n: int, accept: Callable[[int], bool]) -> tuple | None:
        """The n best accepted observed followers, which outrank every
        unseen id; None when fewer than n pass."""
        # ids ascending, then stably by descending count, which orders the
        # log-probabilities
        ids = sorted(self._counts)
        ids.sort(key=self._counts.__getitem__, reverse=True)
        out = list(islice(filter(accept, ids), n))
        return tuple(self._sorted_seen(out)) if len(out) == n else None

    def allowed(self, mask: AbstractSet[int]) -> tuple[tuple[int, float], ...]:
        counts = self._counts
        seen = self._sorted_seen([i for i in mask if i in counts])
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

    def tokenize(self, text: str) -> list[int]:
        return greedy_tokenize(self.vocab, text)

    def detokenize(self, tokens: Sequence[int]) -> str:
        """The tokens' pieces concatenated; EOS renders as its vocabulary
        string."""
        return "".join(self.vocab.tokens[t] for t in tokens)


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


class TableLM(LMBackend):
    """Lookup model: the detokenized prefix string selects a probability row.

    The key is the ``text`` a caller passes (the decoders pass each
    hypothesis's carried text), or else ``detokenize(prefix)``.  Both
    spell every token, EOS included, by its vocabulary string, and forced
    text round-trips through ``tokenize`` (greedy segmentation spells the
    text exactly), so the two keys are equal.

    ``rows`` may be a mapping from prefix strings to rows, or a callable
    ``prefix -> row | None`` implementing the same lookup virtually (used
    by generated fixtures whose reachable context set is large).  A miss
    falls back to the default row.  A mapping is read as it stood when the
    model was built: its rows are validated and their distributions kept.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        rows: Mapping[str, Sequence[float]] | Callable[[str], Sequence[float] | None],
        default_row: Sequence[float],
        check_rows: bool = True,
    ):
        self.vocab = vocab
        self._lookup = rows.get if isinstance(rows, Mapping) else rows
        self._rows = rows if isinstance(rows, Mapping) else None
        self._default = tuple(default_row)
        self._check = check_rows
        # sorted distributions of mapping rows; None keys the default row
        self._dists: dict[str | None, TokenDistribution] = {}
        _check_row(self._default, "default row")
        if len(self._default) != len(vocab):
            raise ModelFileError("default row length differs from vocabulary size")
        if isinstance(rows, Mapping) and check_rows:
            for key, row in rows.items():
                if len(row) != len(vocab):
                    raise ModelFileError(
                        f"row for context {key!r} has wrong length"
                    )
                _check_row(row, f"context {key!r}")

    def _row(self, key: str) -> Sequence[float]:
        row = self._lookup(key)
        if row is None:
            return self._default
        if self._rows is None and self._check:
            if len(row) != len(self.vocab):
                raise ModelFileError(f"virtual row for {key!r} has wrong length")
            _check_row(row, f"virtual context {key!r}")
        return row

    def next_distribution(
        self, prefix: Sequence[int], text: str | None = None
    ) -> TokenDistribution:
        key = self.detokenize(prefix) if text is None else text
        if self._rows is None:
            return _distribution(self._row(key))
        row = self._rows.get(key)
        if row is None:
            key, row = None, self._default
        dist = self._dists.get(key)
        if dist is None:
            dist = self._dists[key] = _distribution(row)
        return dist

    def score_forced(
        self,
        prefix: Sequence[int],
        continuation: Sequence[int],
        text: str | None = None,
    ) -> list[float]:
        """One row lookup per forced token; the key grows by that token's text."""
        tokens = self.vocab.tokens
        key = self.detokenize(prefix) if text is None else text
        out: list[float] = []
        for t in continuation:
            p = self._row(key)[t]
            out.append(math.log(p) if p > 0.0 else NEG_INF)
            key += tokens[t]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "TableLM":
        for key in data:
            if key not in {"vocab", "eos", "contexts", "default"}:
                raise ModelFileError(f"unknown key {key!r} in table model")
        try:
            vocab = Vocabulary(tuple(data["vocab"]), data["eos"])
        except (KeyError, TypeError, ValueError) as e:
            raise ModelFileError(f"bad vocabulary: {e}") from e
        contexts = data.get("contexts", {})
        if not isinstance(contexts, dict):
            raise ModelFileError("'contexts' must be an object")
        if "default" not in data:
            raise ModelFileError("table model requires a 'default' row")
        return cls(vocab, contexts, data["default"])

    @classmethod
    def from_file(cls, path: str) -> "TableLM":
        try:
            with open(path, "r", encoding="utf-8") as f:
                data = json.load(f)
        except OSError as e:
            raise ModelFileError(f"cannot read {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ModelFileError(f"{path} is not valid JSON: {e}") from e
        if not isinstance(data, dict):
            raise ModelFileError(f"{path}: table model must be a JSON object")
        return cls.from_json(data)


class NGramLM(LMBackend):
    """Fixed-order n-gram model with add-1 smoothing over the vocabulary.

    Contexts never observed in the corpus back off to the add-1-smoothed
    unigram distribution; prefixes shorter than the context length use the
    same backoff.
    """

    def __init__(self, vocab: Vocabulary, order: int, corpus_tokens: Sequence[int]):
        if order < 1:
            raise ModelFileError("order must be >= 1")
        self.vocab = vocab
        self.order = order
        self._unigram = (Counter(corpus_tokens), len(corpus_tokens))
        follow: dict[tuple[int, ...], Counter] = {}
        k = order - 1
        for i in range(k, len(corpus_tokens)):
            ctx = tuple(corpus_tokens[i - k : i])
            follow.setdefault(ctx, Counter())[corpus_tokens[i]] += 1
        # each context's follower total is summed once, here
        self._follow: dict[tuple[int, ...], tuple[Counter, int]] = {
            ctx: (counts, sum(counts.values())) for ctx, counts in follow.items()
        }

    def _counts(self, prefix: Sequence[int]) -> tuple[Counter, int]:
        """Follower counts of the prefix's context and their total."""
        k = self.order - 1
        if len(prefix) >= k:
            hit = self._follow.get(tuple(prefix[len(prefix) - k :]))
            if hit is not None:
                return hit
        return self._unigram

    def next_distribution(
        self, prefix: Sequence[int], text: str | None = None
    ) -> TokenDistribution:
        """A sparse view of the context's counts: nothing V-wide is built.
        The model reads token ids, so ``text`` is ignored."""
        counts, total = self._counts(prefix)
        return _SmoothedCounts(counts, total, len(self.vocab))

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
        v = len(self.vocab)
        ctx = list(prefix[len(prefix) - k :]) if len(prefix) >= k else list(prefix)
        out: list[float] = []
        for t in continuation:
            counts, total = self._counts(ctx)
            out.append(math.log((counts.get(t, 0) + 1) / (total + v)))
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
        corpus_path = os.path.join(base_dir, data["corpus_path"])
        try:
            with open(corpus_path, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            raise ModelFileError(f"cannot read corpus {corpus_path}: {e}") from e
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
        try:
            with open(path, "r", encoding="utf-8") as f:
                data = json.load(f)
        except OSError as e:
            raise ModelFileError(f"cannot read {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ModelFileError(f"{path} is not valid JSON: {e}") from e
        if not isinstance(data, dict):
            raise ModelFileError(f"{path}: n-gram config must be a JSON object")
        return cls.from_config(data, base_dir=os.path.dirname(path) or ".")
