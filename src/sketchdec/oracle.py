"""Exhaustive reference decoder.

Enumerates every legal template completion by direct rule-following over
plain strings, scores each full token sequence with the backend, and
returns the maximum.  Deliberately shares no machinery with the search
decoders or the constraint engine: membership and termination checks are
linear scans over the raw member strings, and the length-normalization
formula is restated inline.  The point is an independent route to the
same answer.

Only full-distribution backends make sense here; the path space must also
be small, so enumeration refuses instances beyond a completion cap.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InstanceTooLarge, TemplateUnsatisfiable
from .lm import LMBackend, ordered_sum
from .scoring import ScoreParams
from .sketch import as_source

DEFAULT_COMPLETION_CAP = 100_000


@dataclass(frozen=True)
class OracleResult:
    tokens: tuple[int, ...]
    raw_score: float
    normalized_score: float
    completion_count: int


def _variable_paths(
    token_texts: list[str], eos_index: int, spec
) -> list[tuple[tuple[int, ...], str]]:
    """All legal (tokens, value) paths for one variable."""
    members = spec.one_of.members if spec.one_of is not None else None
    stop_phrases = list(spec.stop_phrases)
    out: list[tuple[tuple[int, ...], str]] = []

    def is_member(s: str) -> bool:
        return any(m == s for m in members)

    def is_prefix(s: str) -> bool:
        return any(m.startswith(s) for m in members)

    def is_extendable(s: str) -> bool:
        return any(m != s and m.startswith(s) for m in members)

    def stop_hit(s: str) -> bool:
        return any(p in s for p in stop_phrases)

    def walk(tokens: tuple[int, ...], value: str) -> None:
        for t in range(len(token_texts)):
            if t == eos_index:
                if members is None or is_member(value):
                    out.append((tokens + (t,), value))
                continue
            new_value = value + token_texts[t]
            new_tokens = tokens + (t,)
            if members is not None:
                if not is_prefix(new_value):
                    continue
                if is_member(new_value) and not is_extendable(new_value):
                    out.append((new_tokens, new_value))
                elif len(new_tokens) >= spec.max_tokens:
                    if is_member(new_value):
                        out.append((new_tokens, new_value))
                    # incomplete at the cap: dead path, excluded
                else:
                    walk(new_tokens, new_value)
            else:
                if stop_hit(new_value) or len(new_tokens) >= spec.max_tokens:
                    out.append((new_tokens, new_value))
                else:
                    walk(new_tokens, new_value)

    walk((), "")
    return out


def enumerate_completions(
    sketch_or_source,
    backend: LMBackend,
    cap: int = DEFAULT_COMPLETION_CAP,
) -> list[tuple[int, ...]]:
    """Every full-template token sequence, unscored.

    Raises InstanceTooLarge as soon as the count passes ``cap``.
    """
    source = as_source(sketch_or_source)
    token_texts = list(backend.vocab.tokens)
    eos_index = backend.vocab.eos_index
    out: list[tuple[int, ...]] = []

    def walk(values: dict[str, str], tokens: tuple[int, ...]) -> None:
        run = source.pending(values)
        if not run:
            if len(out) >= cap:
                raise InstanceTooLarge(len(out) + 1, cap)
            out.append(tokens)
            return
        for c in run:
            if c.is_det:
                tokens = tokens + tuple(backend.tokenize(c.text))
        last = run[-1]
        if last.is_det:
            if len(out) >= cap:
                raise InstanceTooLarge(len(out) + 1, cap)
            out.append(tokens)
            return
        spec = last.var
        for path, value in _variable_paths(token_texts, eos_index, spec):
            walk({**values, spec.name: value}, tokens + path)

    walk({}, ())
    return out


def oracle_decode(
    sketch_or_source,
    backend: LMBackend,
    score: ScoreParams | None = None,
    cap: int = DEFAULT_COMPLETION_CAP,
) -> OracleResult:
    """Score every completion and return the best under the usual order:
    higher normalized score, then fewer tokens, then lower token indices."""
    score = score or ScoreParams()
    completions = enumerate_completions(sketch_or_source, backend, cap=cap)
    best_key = None
    best: OracleResult | None = None
    for tokens in completions:
        lps = backend.score_forced((), tokens)
        raw = ordered_sum(lps)
        m = len(tokens)
        if m == 0:
            weight = 1.0
        else:
            weight = ((score.beta + 1.0) ** score.alpha) / (
                (score.beta + m) ** score.alpha
            )
        norm = weight * raw
        key = (-norm, len(tokens), tokens)
        if best_key is None or key < best_key:
            best_key = key
            best = OracleResult(
                tokens=tokens,
                raw_score=raw,
                normalized_score=norm,
                completion_count=len(completions),
            )
    if best is None:
        raise TemplateUnsatisfiable("no completion satisfies the template")
    return best
