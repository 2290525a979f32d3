"""Graph-escape task: dynamic transcripts, greedy detours, searched exits."""
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import YieldingDict, run_threads
from sketchdec import lm
from sketchdec.decoders import DecoderConfig, decode
from sketchdec.tasks import dungeon


def test_generated_distances_match_request():
    for seed in range(6):
        for distance in (2, 3):
            instance = dungeon.gen_dungeon(seed, distance)
            assert dungeon.shortest_distance(instance) == distance
            assert instance.rooms[instance.exit] == "Exit"
            assert instance.rooms[instance.start] != "Exit"
            # hallways are symmetric
            for a, nbs in enumerate(instance.hallways):
                for b in nbs:
                    assert a in instance.hallways[b]


def test_unsupported_distance():
    with pytest.raises(ValueError):
        dungeon.gen_dungeon(0, 4)


def test_suite_mean_shortest_route():
    instances = dungeon.suite(0)
    assert len(instances) == 10
    mean = sum(i.shortest for i in instances) / len(instances)
    assert mean == pytest.approx(2.3)


def test_message_wording_is_frozen():
    assert dungeon.room_message(3, "Vault", (1, 2)) == (
        "System: You are in room 3 'Vault'. You can go to [1, 2]. "
        "Where do you want to go?\nYou:"
    )
    assert dungeon.invalid_message(9, "Vault", (1, 2)) == (
        "System: 9 is not a valid neighboring room of 'Vault'. "
        "Valid rooms are [1, 2].\n"
    )
    assert dungeon.LOSE_MESSAGE == "System: You have taken too many steps. You lose.\n"


def test_replay_actions():
    instance = dungeon.gen_dungeon(0, 2)
    # start connects to room 1, room 1 connects to the exit
    path = ["1", str(instance.exit)]
    assert dungeon.replay_actions(instance, path) == 2
    # an invalid move costs a step and stays put
    detour = ["9" if 9 not in instance.hallways[instance.start] else "7", *path]
    assert dungeon.replay_actions(instance, detour) == 3
    assert dungeon.replay_actions(instance, ["1"]) is None
    assert dungeon.replay_actions(instance, []) is None


def expected_transcript(instance: dungeon.DungeonInstance, actions: list[str]) -> str:
    """Rebuild the full transcript from the action sequence alone."""
    node = instance.start
    text = dungeon.room_message(node, instance.rooms[node], instance.hallways[node])
    steps = 0
    for action in actions:
        text += action + "\n"
        steps += 1
        target = int(action)
        if target in instance.hallways[node]:
            node = target
        else:
            text += dungeon.invalid_message(
                target, instance.rooms[node], instance.hallways[node]
            )
        if instance.rooms[node] == "Exit":
            return text
        if steps >= dungeon.MAX_STEPS:
            return text + dungeon.LOSE_MESSAGE
        text += dungeon.room_message(
            node, instance.rooms[node], instance.hallways[node]
        )
    return text


def test_decoded_transcript_matches_replay():
    instance = dungeon.gen_dungeon(0, 2)
    backend = dungeon.dungeon_backend(instance)
    for config in (
        DecoderConfig(kind="argmax", width=1),
        DecoderConfig(kind="beamvar", width=2),
    ):
        result = decode(dungeon.dungeon_source(instance), backend, config)
        actions = [b.value for b in result.bindings]
        assert result.text == expected_transcript(instance, actions)


@st.composite
def action_strings(draw):
    """An instance and digit actions: valid moves, non-neighbour digits
    and moves to the exit when it is next door, running on past the exit
    and the step cap."""
    instance = dungeon.gen_dungeon(
        draw(st.integers(0, 500)), draw(st.sampled_from((2, 3)))
    )
    node, actions = instance.start, []
    for _ in range(draw(st.integers(0, dungeon.MAX_STEPS + 2))):
        hallways = instance.hallways[node]
        invalid = [d for d in range(10) if d not in hallways]
        onward = (instance.exit,) if instance.exit in hallways else hallways
        kind = draw(st.sampled_from((hallways, invalid, onward)))
        target = draw(st.sampled_from(kind))
        if target in hallways:
            node = target
        actions.append(str(target))
    return instance, actions


_FIXED = dungeon.gen_dungeon(0, 2)  # the start's only neighbours are 0 and 1


@settings(max_examples=40, deadline=None)
@given(action_strings())
@example((_FIXED, ["2", "1", str(_FIXED.exit), "0"]))
@example((_FIXED, ["2"] * (dungeon.MAX_STEPS + 1)))
def test_source_and_model_take_the_same_steps(case):
    """The template's runs, joined with the actions, spell the expected
    transcript; the model's walk of it reaches an action position exactly
    where the template opens a variable, and predicts each forced
    character as the top entry of its det row."""
    instance, actions = case
    source = dungeon.dungeon_source(instance)
    values, text, opened = {}, "", []
    while True:
        run = source.program(values)
        text += "".join(chunk.text for chunk in run if chunk.is_det)
        if not run[-1].is_var:
            break
        opened.append(len(text))
        if len(values) == len(actions):
            break
        values[run[-1].var.name] = actions[len(values)]
        text += actions[len(values) - 1]
    assert text == expected_transcript(instance, actions)

    walk = dungeon._segments(instance, _messages(instance), text)
    action_at = [pos + len(current) for pos, _, _, _, current in walk]
    # past the exit or the step cap the model would still read an action
    assert action_at[-1] == len(text)
    assert action_at[:-1] == [at for at in opened if at < len(text)]
    backend = dungeon.dungeon_backend(instance)
    top = math.log(dungeon.DET_CHAR_MASS)
    for i, char in enumerate(text):
        if i not in opened:
            prefix = text[:i]
            dist = backend.next_distribution(backend.tokenize(prefix), text=prefix)
            assert dist.top(1) == ((backend.vocab.index_of(char), top),)


def test_search_exits_faster_than_greedy():
    instance = dungeon.suite(0)[0]
    greedy_steps, greedy_norm = dungeon.run_dungeon(
        instance, DecoderConfig(kind="argmax", width=1)
    )
    searched_steps, searched_norm = dungeon.run_dungeon(
        instance, DecoderConfig(kind="beamvar", width=2)
    )
    assert greedy_steps == 7
    assert searched_steps == 2
    assert searched_norm > greedy_norm


def test_task_report():
    reports = {r.decoder: r for r in dungeon.run_dungeon_task()}
    assert all(r.successes == 10 and r.total == 10 for r in reports.values())
    assert reports["argmax"].mean_steps == pytest.approx(6.4)
    assert reports["beamvar"].mean_steps == pytest.approx(2.3)
    assert reports["var"].mean_steps == pytest.approx(2.3)
    assert reports["beamvar"].mean_steps <= reports["argmax"].mean_steps


def _messages(instance: dungeon.DungeonInstance) -> tuple[str, ...]:
    return tuple(
        dungeon.room_message(n, name, instance.hallways[n])
        for n, name in enumerate(instance.rooms)
    )


def _transcript(instance: dungeon.DungeonInstance, actions: str) -> str:
    """The model's view of a walk: every segment, each followed by its action.

    Actions need not be valid rooms or digits, and the walk goes on past the
    exit and the step cap, as a model asked about such a prefix would.
    """
    # text always ends where a segment starts; [-1] is that segment's text
    text = ""
    for action in actions:
        text += _last_segment(instance, text)[-1] + action
    return text + _last_segment(instance, text)[-1]


def _last_segment(instance: dungeon.DungeonInstance, text: str):
    """The segment the model's walk of ``text`` ends in."""
    for segment in dungeon._segments(instance, _messages(instance), text):
        pass
    return segment


def _fresh_walk_rows(instance: dungeon.DungeonInstance):
    """Reference model: every lookup replays every action from the start,
    and builds its whole row from the model's rule."""
    vocab = dungeon.dungeon_vocab(instance)
    messages = _messages(instance)
    n = len(vocab.tokens)

    def action_row(node: int, visits: dict[int, int]) -> list[float]:
        # ACTION_MASS over the ten digits, a neighbour weighted by its id and
        # its visits and any other digit by TINY; the rest spread evenly
        weights = {
            str(d): (
                dungeon.NEIGHBOR_PREFERENCE**d
                * dungeon.VISIT_DISCOUNT ** visits.get(d, 0)
                if d in instance.hallways[node]
                else dungeon.TINY
            )
            for d in range(10)
        }
        total = lm.ordered_sum(weights.values())
        spread = (1.0 - dungeon.ACTION_MASS) / (n - 10)
        return [
            dungeon.ACTION_MASS * weights[t] / total if t in weights else spread
            for t in vocab.tokens
        ]

    def det_row(char: str) -> list[float]:
        # DET_CHAR_MASS on the character and the rest spread evenly, or
        # uniform for a character outside the vocabulary
        if char not in vocab.tokens[1:]:
            return [1.0 / n] * n
        spread = (1.0 - dungeon.DET_CHAR_MASS) / (n - 1)
        return [dungeon.DET_CHAR_MASS if t == char else spread for t in vocab.tokens]

    def rows(prefix: str) -> list[float]:
        node, steps, visits, pos = instance.start, 0, {instance.start: 1}, 0
        current = messages[node]
        while len(prefix) > pos + len(current):
            action = prefix[pos + len(current)]
            pos += len(current) + 1
            steps += 1
            tail = "\n"
            neighbours = instance.hallways[node]
            target = int(action) if action.isdigit() else -1
            if target in neighbours:
                node = target
                visits[node] = visits.get(node, 0) + 1
            else:
                room = instance.rooms[node]
                tail += dungeon.invalid_message(target, room, neighbours)
            if instance.rooms[node] == "Exit":
                current = tail
            elif steps >= dungeon.MAX_STEPS:
                current = tail + dungeon.LOSE_MESSAGE
            else:
                current = tail + messages[node]
        if len(prefix) - pos == len(current):
            return action_row(node, visits)
        return det_row(current[len(prefix) - pos])

    return rows


def _log_bits(row) -> list[str]:
    return [(math.log(p) if p > 0.0 else float("-inf")).hex() for p in row]


def _assert_rows_match_fresh_walks(instance, prefixes):
    """The backend's distributions carry the reference walk's rows, as
    log-probabilities equal bit for bit.  The model reads the passed text
    alone, which need not be tokenizable ("-" of "-1" is no token)."""
    backend = dungeon.dungeon_backend(instance)
    fresh = _fresh_walk_rows(instance)
    for prefix in prefixes:
        entries = sorted(backend.next_distribution((), text=prefix).entries)
        assert [lp.hex() for _, lp in entries] == _log_bits(fresh(prefix))


@st.composite
def walk_transcripts(draw):
    """An instance and 1-3 transcripts of walks through it."""
    seed = draw(st.integers(0, 500))
    instance = dungeon.gen_dungeon(seed, draw(st.sampled_from((2, 3))))
    # each step either takes a valid hallway or picks any character,
    # including invalid rooms and non-digits
    anything = st.sampled_from("0123456789x: \n")
    transcripts = []
    for _ in range(draw(st.integers(1, 3))):
        actions = ""
        node = instance.start
        for _ in range(draw(st.integers(0, dungeon.MAX_STEPS + 2))):
            valid = st.sampled_from(instance.hallways[node]).map(str)
            action = draw(st.one_of(valid, anything))
            if action.isdigit() and int(action) in instance.hallways[node]:
                node = int(action)
            actions += action
        transcripts.append(_transcript(instance, actions))
    return instance, transcripts


@st.composite
def walk_prefixes(draw):
    instance, transcripts = draw(walk_transcripts())
    # runs of one-character extensions interleaved across transcripts and
    # starting anywhere, so consecutive lookups both extend and backtrack
    prefixes = []
    for _ in range(draw(st.integers(1, 8))):
        text = draw(st.sampled_from(transcripts))
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 400)))
        prefixes.extend(text[:i] for i in range(start, end + 1))
    return instance, prefixes


@settings(max_examples=60, deadline=None)
@given(walk_prefixes())
def test_walk_rows_equal_fresh_walk_rows(case):
    instance, prefixes = case
    _assert_rows_match_fresh_walks(instance, prefixes)


def test_walk_through_exit_and_step_cap():
    instance = dungeon.gen_dungeon(0, 2)
    invalid = "9" if 9 not in instance.hallways[instance.start] else "7"
    escape = _transcript(instance, invalid + "1" + str(instance.exit) + "x0")
    lost = _transcript(instance, "x" * (dungeon.MAX_STEPS + 2))
    assert dungeon.LOSE_MESSAGE in lost
    assert dungeon.replay_actions(instance, [invalid, "1", str(instance.exit)]) == 3
    # the walk steps all five actions, past the exit
    segments = dungeon._segments(instance, _messages(instance), escape)
    assert len(list(segments)) == 6
    _assert_rows_match_fresh_walks(
        instance,
        [escape[:i] for i in range(len(escape) + 1)]
        + [lost[:i] for i in range(len(lost) + 1)]
        + [escape[:i] for i in range(len(escape), -1, -97)],
    )


def _assert_forced_matches_reference(instance, prefix, continuation):
    """Forced scores equal, bit for bit, the log of each token's entry in
    the row a fresh walk gives, with the text passed and with it joined."""
    backend = dungeon.dungeon_backend(instance)
    fresh = _fresh_walk_rows(instance)
    vocab = backend.vocab
    text = "".join(vocab.tokens[t] for t in prefix)
    want = []
    for i, t in enumerate(continuation):
        p = fresh(text + "".join(vocab.tokens[c] for c in continuation[:i]))[t]
        want.append((math.log(p) if p > 0.0 else float("-inf")).hex())
    for passed in (text, None):
        got = backend.score_forced(prefix, continuation, text=passed)
        assert [x.hex() for x in got] == want


def _is_action_position(instance, text: str) -> bool:
    pos, _, _, _, current = _last_segment(instance, text)
    return len(text) - pos == len(current)


@st.composite
def forced_cases(draw):
    """A prefix and a continuation cut from a walk's transcript, starting
    anywhere or at an action, with tokens replaced and EOS tokens put in."""
    instance, transcripts = draw(walk_transcripts())
    text = draw(st.sampled_from(transcripts))
    vocab = dungeon.dungeon_vocab(instance)
    ids = st.integers(0, len(vocab) - 1)
    actions = [
        i for i in range(len(text) + 1) if _is_action_position(instance, text[:i])
    ]
    start = draw(st.one_of(st.integers(0, len(text)), st.sampled_from(actions)))
    end = draw(st.integers(start, len(text)))
    # a character outside the vocabulary ("-" of "-1") becomes any token
    tokens = [vocab.index_of(c) for c in text]
    tokens = [draw(ids) if t is None else t for t in tokens]
    prefix, continuation = tokens[:start], tokens[start:end]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(continuation)))
        if at < len(continuation) and draw(st.booleans()):
            continuation[at] = draw(ids)
        else:
            continuation.insert(at, draw(st.one_of(st.just(vocab.eos_index), ids)))
    return instance, prefix, continuation


@settings(max_examples=80, deadline=None)
@given(forced_cases())
def test_segment_scoring_equals_per_token_reference(case):
    _assert_forced_matches_reference(*case)


def test_segment_scoring_over_whole_transcripts():
    """Whole transcripts scored from the empty prefix, as a re-score of a
    decode reads them: through invalid and non-digit actions (whose "-1"
    the vocabulary cannot spell, so its "-" takes the uniform row), past
    the exit and past the step cap, with EOS tokens on the way."""
    instance = dungeon.gen_dungeon(0, 2)
    vocab = dungeon.dungeon_vocab(instance)
    invalid = "9" if 9 not in instance.hallways[instance.start] else "7"
    escape = _transcript(instance, invalid + "x1" + str(instance.exit) + "x0")
    lost = _transcript(instance, "x" * (dungeon.MAX_STEPS + 2))
    assert "-1 is not" in escape and dungeon.LOSE_MESSAGE in lost
    for text in (escape, lost):
        tokens = [vocab.index_of(c) for c in text.replace("-", "x")]
        _assert_forced_matches_reference(instance, [], tokens)
        eos = vocab.eos_index
        with_eos = [eos] + tokens[:300] + [eos, eos]
        _assert_forced_matches_reference(instance, [], with_eos)
    backend = dungeon.dungeon_backend(instance)
    config = DecoderConfig(kind="beamvar", width=2)
    result = decode(dungeon.dungeon_source(instance), backend, config)
    _assert_forced_matches_reference(instance, [], list(result.best.tokens))


def _actions_in(text: str) -> int:
    """Actions a decoded transcript holds: every prompt ends in "You:",
    and an action follows each prompt but the last when the text ends on
    it."""
    return text.count("You:") - text.endswith("You:")


def test_one_walk_per_backend_call(monkeypatch):
    """Each backend call walks its text once.  It resumes from the kept
    state of its prefix text, or of that text less its last character,
    never from a state past the prefix, and steps only the actions past
    that point: within a decode, at most one action per call.  A re-score
    from the empty prefix steps every action, and forced scoring reads
    many characters per call."""
    instance = dungeon.suite(0)[0]
    for config in (
        DecoderConfig(kind="argmax", width=1),
        DecoderConfig(kind="beamvar", width=2),
        DecoderConfig(kind="var", width=2, proposal="branch"),
    ):
        backend = dungeon.dungeon_backend(instance)
        calls = []  # per call: prefix text, text, walks, resume point, steps
        forced = 0
        segments = dungeon._segments

        def counting_segments(instance, messages, text, start=None):
            record = calls[-1]
            record["walks"] += 1
            record["resumed"] = 0 if start is None else start[2]
            for stepped, segment in enumerate(segments(instance, messages, text, start)):
                record["steps"] += stepped > 0
                yield segment

        def counted(method):
            def call(prefix, *rest, **kw):
                nonlocal forced
                key = kw.get("text")
                if key is None:
                    key = backend.detokenize(prefix)
                text = key
                if rest:
                    forced += len(rest[0])
                    text += "".join(backend.vocab.tokens[t] for t in rest[0])
                calls.append({"key": key, "text": text, "walks": 0, "steps": 0})
                return method(prefix, *rest, **kw)

            return call

        monkeypatch.setattr(dungeon, "_segments", counting_segments)
        monkeypatch.setattr(backend, "score_forced", counted(backend.score_forced))
        monkeypatch.setattr(
            backend, "next_distribution", counted(backend.next_distribution)
        )
        result = decode(dungeon.dungeon_source(instance), backend, config)
        decoded = len(calls)
        # a re-score of the decoded transcript, which the backend holds
        # whole, steps every action in it
        assert result.best.text in backend._walks
        backend.score_forced((), result.best.tokens)
        monkeypatch.undo()
        assert forced > 10 * len(calls)
        for call in calls:
            assert call["walks"] == 1
            assert call["resumed"] <= _actions_in(call["key"])
            actions = _actions_in(call["text"])
            assert call["steps"] == actions - call["resumed"]
            assert actions <= dungeon.MAX_STEPS
        assert all(call["steps"] <= 1 for call in calls[:decoded])
        assert calls[0]["resumed"] == 0
        assert sum(call["steps"] for call in calls[:decoded]) <= (
            _actions_in(result.best.text) + decoded
        )
        assert calls[-1]["resumed"] == 0
        assert calls[-1]["steps"] == len(result.bindings) > 0


@pytest.mark.parametrize(
    "config",
    [
        DecoderConfig(kind="argmax", width=1),
        DecoderConfig(kind="var", width=2, proposal="branch"),
        DecoderConfig(kind="beamvar", width=2),
    ],
    ids=lambda c: c.kind,
)
def test_decode_detokenizes_no_prefix(config, monkeypatch):
    """The decoders carry each hypothesis's text, so the table model keys
    its rows without joining a prefix: ``detokenize`` is never called,
    since each token's piece is read from the vocabulary, and the decode
    is the one the joined prefixes give."""
    instance = dungeon.suite(0)[7]
    # the reference backend drops the carried text and joins every prefix
    reference = dungeon.dungeon_backend(instance)
    for name in ("next_distribution", "score_forced"):
        method = getattr(reference, name)
        monkeypatch.setattr(
            reference, name, lambda *args, text, _m=method: _m(*args)
        )
    joined = decode(dungeon.dungeon_source(instance), reference, config)
    backend = dungeon.dungeon_backend(instance)
    lengths = []
    detokenize = backend.detokenize

    def counting(tokens):
        lengths.append(len(tokens))
        return detokenize(tokens)

    monkeypatch.setattr(backend, "detokenize", counting)
    carried = decode(dungeon.dungeon_source(instance), backend, config)
    assert lengths == []
    assert carried == joined
    assert carried.best.text == detokenize(carried.best.tokens)


def _action_positions(instance, text: str) -> list[int]:
    """Where the model's walk of ``text`` reads an action, in order."""
    walk = dungeon._segments(instance, _messages(instance), text)
    positions = [pos + len(current) for pos, _, _, _, current in walk]
    return [at for at in positions if at <= len(text)]


def test_action_memo_stays_at_its_bound(monkeypatch):
    """A scored text that walks far past the step cap, back and forth
    between two rooms, raises visit counts at every action, so each action
    reaches a model state of its own; the memo never holds more than its
    bound, and rows read after an eviction are the reference walk's."""
    instance = dungeon.gen_dungeon(0, 2)  # the start's neighbours are 0 and 1
    assert instance.start in instance.hallways[0]
    steps = dungeon.ACTION_MEMO_SIZE + 40
    text = _transcript(instance, ("0" + str(instance.start)) * (steps // 2))
    backend = dungeon.dungeon_backend(instance)
    vocab = backend.vocab
    tokens = [vocab.index_of(c) for c in text]
    for at in _action_positions(instance, text):
        backend.next_distribution(tokens[:at], text=text[:at])
        assert len(backend._actions) <= dungeon.ACTION_MEMO_SIZE
    assert len(backend._actions) == dungeon.ACTION_MEMO_SIZE
    backend.score_forced((), tokens)
    assert len(backend._actions) == dungeon.ACTION_MEMO_SIZE

    monkeypatch.setattr(dungeon, "ACTION_MEMO_SIZE", 1)
    short = text[: _action_positions(instance, text)[12]]
    at = _action_positions(instance, short)
    # each state read again after others evicted it, and read twice in a row
    order = at + at[::-1] + [a for a in at for _ in range(2)]
    _assert_rows_match_fresh_walks(instance, [short[:a] for a in order])
    _assert_forced_matches_reference(instance, [], [vocab.index_of(c) for c in short])


_SUITE_CONFIGS = (
    DecoderConfig(kind="argmax", width=1),
    DecoderConfig(kind="beamvar", width=2),
    DecoderConfig(kind="var", width=2),
)


def test_memo_rows_decode_as_fresh_rows():
    """One backend shared across a suite's decodes, with its rows kept
    from decode to decode, gives the decodes of a fresh backend each."""
    for instance in dungeon.suite(0):
        shared = dungeon.dungeon_backend(instance)
        for config in _SUITE_CONFIGS:
            warm = decode(dungeon.dungeon_source(instance), shared, config)
            fresh = dungeon.dungeon_backend(instance)
            cold = decode(dungeon.dungeon_source(instance), fresh, config)
            assert warm.best.tokens == cold.best.tokens
            assert warm.bindings == cold.bindings
            assert warm.best.raw_score.hex() == cold.best.raw_score.hex()


def test_forced_action_entries_equal_distribution_entries():
    """At each action of a decoded transcript, and past its exit, the
    forced score of every token equals its entry in the distribution, bit
    for bit, whichever of the two reads builds the row and whichever finds
    it kept."""
    instance = dungeon.suite(0)[0]
    config = DecoderConfig(kind="argmax", width=1)
    source = dungeon.dungeon_source(instance)
    result = decode(source, dungeon.dungeon_backend(instance), config)
    text, tokens = result.best.text, list(result.best.tokens)
    positions = _action_positions(instance, text)
    assert len(positions) == len(result.bindings) + 1 > 2

    def distribution(backend, at):
        dist = backend.next_distribution(tokens[:at], text=text[:at])
        return {t: lp.hex() for t, lp in dist.entries}

    def forced(backend, at):
        return {
            t: backend.score_forced(tokens[:at], [t], text=text[:at])[0].hex()
            for t in range(len(backend.vocab))
        }

    for at in positions:
        for first, second in ((distribution, forced), (forced, distribution)):
            backend = dungeon.dungeon_backend(instance)
            built = first(backend, at)
            assert len(backend._actions) == 1
            assert second(backend, at) == built
            assert len(backend._actions) == 1


def test_one_action_row_per_model_state(monkeypatch):
    """A seed-0 suite pass builds each action row once per backend, one
    per distinct model state, and a second pass over the same backends
    builds none."""
    instances = dungeon.suite(0)
    backends = [dungeon.dungeon_backend(instance) for instance in instances]
    built = []  # (instance index, node, neighbour visits) per row built
    action_probs = dungeon._action_probs

    def counting(instance, node, visits):
        neighbours = tuple(visits.get(n, 0) for n in instance.hallways[node])
        built.append((instances.index(instance), node, neighbours))
        return action_probs(instance, node, visits)

    def suite_pass():
        for instance, backend in zip(instances, backends):
            for config in _SUITE_CONFIGS:
                decode(dungeon.dungeon_source(instance), backend, config)

    monkeypatch.setattr(dungeon, "_action_probs", counting)
    suite_pass()
    assert len(built) == len(set(built)) == sum(len(b._actions) for b in backends)
    assert len(built) == 162
    assert max(len(b._actions) for b in backends) < dungeon.ACTION_MEMO_SIZE
    built.clear()
    suite_pass()
    assert built == []


def _read(backend, read):
    """One backend read, as the bits of what it returns."""
    kind, prefix, continuation, passed = read
    text = "".join(backend.vocab.tokens[t] for t in prefix) if passed else None
    if kind == "next":
        dist = backend.next_distribution(prefix, text=text)
        return [(t, lp.hex()) for t, lp in dist.entries]
    return [x.hex() for x in backend.score_forced(prefix, continuation, text=text)]


@st.composite
def backend_reads(draw):
    """An instance and runs of reads along its transcripts, as a decode
    makes them: a next-token read, forced scores from there and from its
    siblings (the prefix and one more token, as the children of a search
    step read), a read where a score ends or one character on, with jumps
    between transcripts and re-scores of whole transcripts from the empty
    prefix.  Each read passes its prefix text or not; continuations may
    hold EOS tokens."""
    instance, transcripts = draw(walk_transcripts())
    vocab = dungeon.dungeon_vocab(instance)
    ids = st.integers(0, len(vocab) - 1)
    # a character outside the vocabulary ("-" of "-1") becomes any token
    streams = [[vocab.index_of(c) for c in text] for text in transcripts]
    streams = [[draw(ids) if t is None else t for t in s] for s in streams]
    reads = []
    for _ in range(draw(st.integers(1, 4))):
        tokens = draw(st.sampled_from(streams))
        at = draw(st.integers(0, len(tokens)))
        for _ in range(draw(st.integers(1, 8))):
            kind = draw(st.sampled_from(("next", "forced", "sibling", "rescore")))
            passed = draw(st.booleans())
            if kind == "next":
                reads.append(("next", tokens[:at], None, passed))
                at = min(len(tokens), at + draw(st.integers(0, 1)))
                continue
            start = 0 if kind == "rescore" else at
            end = len(tokens) if kind == "rescore" else draw(st.integers(at, len(tokens)))
            prefix, continuation = tokens[:start], tokens[start:end]
            if kind == "sibling":
                prefix = prefix + [draw(ids)]
                continuation = continuation[1:]
            if draw(st.booleans()):
                where = draw(st.integers(0, len(continuation)))
                continuation.insert(where, vocab.eos_index)
            reads.append(("forced", prefix, continuation, passed))
            if kind == "forced":
                at = min(len(tokens), end + draw(st.integers(0, 1)))
    return instance, reads


@settings(max_examples=80, deadline=None)
@given(backend_reads(), st.sampled_from((1, 2, 256)), st.sampled_from((1, 256)))
def test_warm_reads_equal_fresh_reads(case, walks, actions):
    """One backend read in any order, its walks resumed from the states
    that earlier reads kept, gives what a fresh backend gives each read,
    bit for bit, under any memo bounds."""
    instance, reads = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dungeon, "WALK_MEMO_SIZE", walks)
        mp.setattr(dungeon, "ACTION_MEMO_SIZE", actions)
        warm = dungeon.dungeon_backend(instance)
        for read in reads:
            assert _read(warm, read) == _read(dungeon.dungeon_backend(instance), read)
            assert len(warm._walks) <= walks


def test_rescore_of_a_text_held_whole():
    """The backend keeps the state of a decoded transcript's last segment;
    a re-score of the transcript from the empty prefix still scores it
    from its first segment."""
    instance = dungeon.suite(0)[0]
    backend = dungeon.dungeon_backend(instance)
    config = DecoderConfig(kind="beamvar", width=2)
    result = decode(dungeon.dungeon_source(instance), backend, config)
    tokens = list(result.best.tokens)
    assert result.best.text in backend._walks
    for text in ("", None):
        read = ("forced", [], tokens, text is not None)
        assert _read(backend, read) == _read(dungeon.dungeon_backend(instance), read)
        assert sum(backend.score_forced((), tokens, text=text)) == pytest.approx(
            result.best.raw_score
        )


@st.composite
def value_dicts(draw):
    """An instance and values bound as a decode binds them, by prefixes of
    digit walks in any order, running past the exit and the step cap,
    some with a gap."""
    instance, actions = draw(action_strings())
    walks = [actions] + [
        draw(st.lists(st.sampled_from(dungeon.ACTION_DIGITS), max_size=12))
        for _ in range(draw(st.integers(0, 2)))
    ]
    dicts = []
    for _ in range(draw(st.integers(1, 16))):
        walk = draw(st.sampled_from(walks))
        n = draw(st.integers(0, len(walk)))
        values = {f"ACTION_{i}": walk[i] for i in range(n)}
        if values and draw(st.integers(0, 4)) == 0:
            del values[f"ACTION_{draw(st.integers(0, n - 1))}"]
        dicts.append(values)
    return instance, dicts


def _replayed_run(instance: dungeon.DungeonInstance, values: dict) -> tuple:
    """Reference program: the run after the values, every action replayed
    from the start, up to the first unbound action or the exit."""
    messages = _messages(instance)
    node, text = instance.start, messages[instance.start]
    for steps, spec in enumerate(dungeon._ACTION_SPECS, 1):
        if spec.name not in values:
            return dungeon.Chunk.det(text), dungeon.Chunk.variable(spec)
        node, text = dungeon._step(instance, messages, node, steps, int(values[spec.name]))
        if instance.rooms[node] == "Exit":
            break
    return (dungeon.Chunk.det(text),)


@settings(max_examples=80, deadline=None)
@given(value_dicts(), st.sampled_from((1, 2, 256)))
def test_warm_source_runs_equal_fresh_runs(case, bound):
    """A source asked in any order, each run one step from a kept run,
    gives the runs of a fresh source and of a replay from the start,
    values bound after the exit included, under any memo bound."""
    instance, dicts = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dungeon, "REPLAY_MEMO_SIZE", bound)
        warm = dungeon.dungeon_source(instance)
        for values in dicts:
            run = warm.pending(values)
            assert run == dungeon.dungeon_source(instance).pending(values)
            assert run == _replayed_run(instance, values)


def test_walk_and_replay_memos_stay_at_their_bounds(monkeypatch):
    """Over a long run of distinct texts and action sequences, past the
    exit and the step cap, the walk and replay memos never hold more than
    their bounds, and fill them."""
    sizes: dict[int, list[int]] = {}  # memo id -> its size after each insert
    remember = dungeon._remember

    def counting(memo, key, value, size):
        out = remember(memo, key, value, size)
        sizes.setdefault(id(memo), []).append(len(memo))
        return out

    monkeypatch.setattr(dungeon, "_remember", counting)
    instance = dungeon.gen_dungeon(0, 2)  # the start's neighbours are 0 and 1
    backend = dungeon.dungeon_backend(instance)
    text = _transcript(instance, ("0" + str(instance.start)) * 200)
    tokens = [backend.vocab.index_of(c) for c in text]
    for at in range(0, len(text), 17):
        backend.next_distribution(tokens[:at], text=text[:at])
        backend.score_forced(tokens[:at], tokens[at : at + 40])
    walks = sizes[id(backend._walks)]
    assert len(walks) > dungeon.WALK_MEMO_SIZE
    assert max(walks) == walks[-1] == len(backend._walks) == dungeon.WALK_MEMO_SIZE

    source = dungeon.dungeon_source(instance)
    before = set(sizes)
    for n in range(3 * dungeon.REPLAY_MEMO_SIZE):
        digits = f"{n:04d}"[::-1]
        source.pending({f"ACTION_{i}": d for i, d in enumerate(digits)})
    (replays,) = (sizes[k] for k in set(sizes) - before)
    assert len(replays) > dungeon.REPLAY_MEMO_SIZE
    assert max(replays) == replays[-1] == dungeon.REPLAY_MEMO_SIZE


def test_concurrent_decodes_share_backend_and_source(monkeypatch):
    """Two threads decoding over one backend and one source, with room
    for one entry in every memo, so that nearly every lookup inserts and
    evicts while the other thread does too, both finish and get the
    sequential decodes."""
    instance = dungeon.suite(0)[0]
    shared = [(dungeon.dungeon_source(instance), dungeon.dungeon_backend(instance))]
    items = [(s, b, config) for s, b in shared for config in _SUITE_CONFIGS] * 20

    def fingerprint(source, backend, config):
        result = decode(source, backend, config)
        return result.best.tokens, result.bindings, result.best.raw_score.hex()

    want = [fingerprint(*item) for item in items]
    for name in ("ACTION_MEMO_SIZE", "WALK_MEMO_SIZE", "REPLAY_MEMO_SIZE"):
        monkeypatch.setattr(dungeon, name, 1)
    monkeypatch.setattr(lm, "TOKENIZE_MEMO_SIZE", 1)
    for _, backend in shared:
        monkeypatch.setattr(backend, "_actions", YieldingDict())
        monkeypatch.setattr(backend, "_walks", YieldingDict())
    got: dict[int, list] = {}

    def work(name, order):
        shown = {i: fingerprint(*items[i]) for i in order}
        got[name] = [shown[i] for i in range(len(items))]

    order = list(range(len(items)))
    assert run_threads(work, (order, order[::-1])) == []
    assert got == {0: want, 1: want}
