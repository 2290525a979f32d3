"""Structured-output task: extract fields from free text into exact JSON.

The template carries every piece of JSON syntax in deterministic chunks
and masks each field to a closed candidate pool, so the output parses
and matches the schema no matter which backend fills the holes.  Content
accuracy still depends on the backend; validity does not.

Reports also compare decoded-token cost against a free-form baseline
prompt that asks for the same JSON without a template.  The counts are
fixture-dependent and informational only.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

from ..decoders import DecoderConfig, decode
from ..lm import NGramLM, TableLM, Vocabulary, greedy_tokenize, ordered_sum
from ..sketch import Chunk, OneOf, Sketch, VariableSpec, instantiate

NAMES = (
    "Maya", "Noah", "Imani", "Kenji", "Sofia", "Ravi",
    "Elena", "Tomas", "Amara", "Felix", "Nadia", "Omar",
)
CITIES = (
    "Lisbon", "Porto", "Nairobi", "Kyoto", "Oslo", "Valencia",
    "Boston", "Cusco", "Tunis", "Hanoi", "Zagreb", "Dakar",
)
AGES = tuple(str(i) for i in range(120))

FIELD_MASS = 0.9  # probability of the record's true field value
EOS_MASS = 0.95

PROMPT_PREFIX = "Text: "
JSON_MARKER = " JSON: "
OPEN_NAME = '{"name": "'
MID_AGE = '", "age": '
MID_CITY = ', "city": "'
CLOSE = '"}'

BASELINE_REQUEST = (
    " Respond with a JSON object containing the name, age and city."
    " Reply: "
)
BASELINE_REPLY_HEAD = (
    "Sure!", " Here", " is", " the", " requested", " JSON", " object",
    " with", " the", " fields", " extracted", " from", " the", " given",
    " text", " for", " you", ":", " ",
)
BASELINE_REPLY_TAIL = (
    ".", " Let", " me", " know", " if", " you", " need", " anything",
    " else", " from", " this", " text", "!",
)

_NARRATIVES = (
    ("{name}", " moved to ", "{city}", " at ", "{age}", "."),
    ("{name}", " turned ", "{age}", " in ", "{city}", "."),
    ("{name}", " is ", "{age}", " years old and lives in ", "{city}", "."),
)


@dataclass(frozen=True)
class Record:
    name: str
    age: int
    city: str
    pattern: int

    @property
    def narrative(self) -> str:
        parts = []
        for piece in _NARRATIVES[self.pattern]:
            if piece == "{name}":
                parts.append(self.name)
            elif piece == "{city}":
                parts.append(self.city)
            elif piece == "{age}":
                parts.append(str(self.age))
            else:
                parts.append(piece)
        return "".join(parts)


RECORDS = (
    Record("Maya", 31, "Lisbon", 0),
    Record("Noah", 7, "Porto", 1),
    Record("Imani", 103, "Nairobi", 2),
    Record("Kenji", 11, "Kyoto", 0),
    Record("Sofia", 45, "Oslo", 1),
    Record("Ravi", 62, "Valencia", 2),
    Record("Elena", 29, "Boston", 0),
    Record("Tomas", 118, "Cusco", 1),
    Record("Amara", 50, "Tunis", 2),
    Record("Omar", 9, "Dakar", 0),
)


@cache
def json_vocab() -> Vocabulary:
    """One vocabulary for every record's backend, so that the decoders'
    OneOf index, kept on the vocabulary, serves them all."""
    narrative_pieces = sorted(
        {p for pat in _NARRATIVES for p in pat if not p.startswith("{")}
    )
    ordered = (
        ("",)
        + tuple(str(d) for d in range(10))
        + NAMES
        + CITIES
        + tuple(narrative_pieces)
        + (PROMPT_PREFIX, JSON_MARKER, OPEN_NAME, MID_AGE, MID_CITY, CLOSE)
        + (BASELINE_REQUEST,)
        + tuple(sorted(set(BASELINE_REPLY_HEAD + BASELINE_REPLY_TAIL)))
    )
    seen: dict[str, None] = {}
    for token in ordered:
        seen.setdefault(token, None)
    return Vocabulary(tokens=tuple(seen), eos_index=0)


def build_sketch(record: Record) -> Sketch:
    return Sketch(
        name=f"json-{record.name.lower()}",
        chunks=(
            Chunk.det(PROMPT_PREFIX + record.narrative + JSON_MARKER + OPEN_NAME),
            Chunk.variable(
                VariableSpec(name="NAME", one_of=OneOf(NAMES), max_tokens=2)
            ),
            Chunk.det(MID_AGE),
            Chunk.variable(
                VariableSpec(name="AGE", one_of=OneOf(AGES), max_tokens=4)
            ),
            Chunk.det(MID_CITY),
            Chunk.variable(
                VariableSpec(name="CITY", one_of=OneOf(CITIES), max_tokens=2)
            ),
            Chunk.det(CLOSE),
        ),
    )


def _spread_row(vocab: Vocabulary, favored: dict[str, float]) -> list[float]:
    mass = ordered_sum(favored.values())
    spread = (1.0 - mass) / (len(vocab.tokens) - len(favored))
    return [favored.get(t, spread) for t in vocab.tokens]


def _field_row(vocab: Vocabulary, pool, target: str) -> list[float]:
    others = (1.0 - FIELD_MASS) * 0.9 / (len(pool) - 1)
    favored = {m: others for m in pool if m != target}
    favored[target] = FIELD_MASS
    return _spread_row(vocab, favored)


def _baseline_reply(record: Record) -> tuple[str, ...]:
    body = (
        OPEN_NAME, record.name, MID_AGE) + tuple(str(record.age)) + (
        MID_CITY, record.city, CLOSE,
    )
    return BASELINE_REPLY_HEAD + body + BASELINE_REPLY_TAIL


def record_backend(record: Record) -> TableLM:
    """Table backend for one record: field rows plus a verbose baseline reply."""
    vocab = json_vocab()
    sketch_prefix = PROMPT_PREFIX + record.narrative + JSON_MARKER
    rows: dict[str, list[float]] = {}

    rows[sketch_prefix + OPEN_NAME] = _field_row(vocab, NAMES, record.name)
    age_prefix = sketch_prefix + OPEN_NAME + record.name + MID_AGE
    digits = str(record.age)
    for k in range(len(digits)):
        rows[age_prefix + digits[:k]] = _spread_row(vocab, {digits[k]: FIELD_MASS})
    rows[age_prefix + digits] = _spread_row(vocab, {"": EOS_MASS})
    rows[age_prefix + digits + MID_CITY] = _field_row(vocab, CITIES, record.city)

    baseline_prompt = PROMPT_PREFIX + record.narrative + BASELINE_REQUEST
    sofar = baseline_prompt
    for token in _baseline_reply(record):
        rows[sofar] = _spread_row(vocab, {token: EOS_MASS})
        sofar += token
    rows[sofar] = _spread_row(vocab, {"": EOS_MASS})

    uniform = [1.0 / len(vocab.tokens)] * len(vocab.tokens)
    return TableLM(vocab, rows, default_row=uniform)


def ngram_backend() -> NGramLM:
    """Bigram model over all completed examples; knows the shape, not the facts."""
    vocab = json_vocab()
    corpus: list[int] = []
    for record in RECORDS:
        text = (
            PROMPT_PREFIX + record.narrative + JSON_MARKER
            + OPEN_NAME + record.name + MID_AGE + str(record.age)
            + MID_CITY + record.city + CLOSE
        )
        corpus.extend(greedy_tokenize(vocab, text))
        corpus.append(vocab.eos_index)
    return NGramLM(vocab, order=2, corpus_tokens=corpus)


# --- checking and reporting ----------------------------------------------------


def extract_json(text: str) -> dict | None:
    """Independent validity check: parse the text after the JSON marker."""
    marker = text.rfind(JSON_MARKER)
    if marker < 0:
        return None
    try:
        obj = json.loads(text[marker + len(JSON_MARKER):])
    except json.JSONDecodeError:
        return None
    if not isinstance(obj, dict) or set(obj) != {"name", "age", "city"}:
        return None
    if not isinstance(obj["name"], str) or not obj["name"]:
        return None
    if not isinstance(obj["age"], int) or not 0 <= obj["age"] < 120:
        return None
    if not isinstance(obj["city"], str) or not obj["city"]:
        return None
    return obj


def free_run_tokens(backend, prompt: str) -> int:
    """Greedy untemplated generation length, the baseline cost, counted up
    to 128 tokens."""
    tokens = list(backend.tokenize(prompt))
    count = 0
    while count < 128:
        index, _ = backend.next_distribution(tokens).top(1)[0]
        if index == backend.vocab.eos_index:
            break
        tokens.append(index)
        count += 1
    return count


@dataclass(frozen=True)
class JsonReport:
    backend: str
    decoder: str
    width: int
    valid: int
    correct: int
    total: int
    mean_decoded_tokens: float
    mean_baseline_tokens: float | None


def run_json_task(
    config: DecoderConfig | None = None,
    backend_kind: str = "table",
) -> JsonReport:
    config = config or DecoderConfig(kind="var", width=2)
    shared = ngram_backend() if backend_kind == "ngram" else None
    valid = correct = 0
    decoded_tokens = []
    baseline_tokens = []
    for record in RECORDS:
        backend = shared if shared is not None else record_backend(record)
        sketch = build_sketch(record)
        result = decode(sketch, backend, config)
        text = instantiate(sketch, result.bindings)
        obj = extract_json(text)
        if obj is not None:
            valid += 1
            if (
                obj["name"] == record.name
                and obj["age"] == record.age
                and obj["city"] == record.city
            ):
                correct += 1
        decoded_tokens.append(
            sum(b.token_count for b in result.bindings)
        )
        if backend_kind == "table":
            baseline_tokens.append(
                free_run_tokens(
                    backend, PROMPT_PREFIX + record.narrative + BASELINE_REQUEST
                )
            )
    return JsonReport(
        backend=backend_kind,
        decoder=config.kind,
        width=config.width,
        valid=valid,
        correct=correct,
        total=len(RECORDS),
        mean_decoded_tokens=sum(decoded_tokens) / len(decoded_tokens),
        mean_baseline_tokens=(
            sum(baseline_tokens) / len(baseline_tokens) if baseline_tokens else None
        ),
    )
