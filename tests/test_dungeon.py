"""Graph-escape task: dynamic transcripts, greedy detours, searched exits."""
import copy
import math

import pytest
from hypothesis import given, settings, strategies as st

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
    messages = _messages(instance)
    # text always ends where a segment starts; [4] is that segment's text
    text = ""
    for action in actions:
        text += dungeon._walk_transcript(instance, messages, text)[4] + action
    return text + dungeon._walk_transcript(instance, messages, text)[4]


def _fresh_walk_rows(instance: dungeon.DungeonInstance):
    """Reference model: every lookup replays every action from the start."""
    vocab = dungeon.dungeon_vocab(instance)
    messages = _messages(instance)
    uniform = [1.0 / len(vocab.tokens)] * len(vocab.tokens)

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
            return dungeon._action_row(vocab, instance, node, visits)
        char = current[len(prefix) - pos]
        return dungeon._det_row(vocab, char) if char in vocab.tokens[1:] else uniform

    return rows


def _assert_rows_match_fresh_walks(instance, prefixes):
    """The backend's row lookups give the reference walk's rows, exactly."""
    rows = dungeon.dungeon_backend(instance)._lookup
    fresh = _fresh_walk_rows(instance)
    for prefix in prefixes:
        assert rows(prefix) == fresh(prefix)


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
def test_resumed_walk_rows_equal_fresh_walk_rows(case):
    instance, prefixes = case
    _assert_rows_match_fresh_walks(instance, prefixes)


def test_resumed_walk_through_exit_and_step_cap():
    instance = dungeon.gen_dungeon(0, 2)
    invalid = "9" if 9 not in instance.hallways[instance.start] else "7"
    escape = _transcript(instance, invalid + "1" + str(instance.exit) + "x0")
    lost = _transcript(instance, "x" * (dungeon.MAX_STEPS + 2))
    assert dungeon.LOSE_MESSAGE in lost
    assert dungeon.replay_actions(instance, [invalid, "1", str(instance.exit)]) == 3
    messages = _messages(instance)
    start = dungeon._walk_transcript(instance, messages, "")
    kept = copy.deepcopy(start)
    assert dungeon._walk_transcript(instance, messages, escape, start)[2] == 5
    assert start == kept  # a checkpoint is never mutated by a resumed walk
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
    messages = _messages(instance)
    pos, _, _, _, current = dungeon._walk_transcript(instance, messages, text)
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


def _actions_taken(instance, text: str, continuation) -> int:
    """Tokens of a forced continuation that take an action: each is one
    character (EOS takes none) read at an action position."""
    vocab = dungeon.dungeon_vocab(instance)
    taken = 0
    for t in continuation:
        taken += bool(vocab.tokens[t]) and _is_action_position(instance, text)
        text += vocab.tokens[t]
    return taken


def test_forced_scoring_walks_from_scratch_at_most_once_per_call(monkeypatch):
    """A decode re-walks from the start at most once per backend call, and
    forced scoring resumes its walk once per action it takes, not once per
    character."""
    instance = dungeon.suite(0)[0]
    for config in (
        DecoderConfig(kind="argmax", width=1),
        DecoderConfig(kind="beamvar", width=2),
    ):
        backend = dungeon.dungeon_backend(instance)
        calls = {"walks": 0, "fresh": 0, "replayed": 0, "backend": 0, "forced": 0}
        forced = []  # (prefix text, continuation) of each forced call
        walk = dungeon._walk_transcript

        def counting_walk(instance, messages, prefix, resume=None):
            calls["walks"] += 1
            calls["fresh"] += resume is None
            state = walk(instance, messages, prefix, resume)
            calls["replayed"] += state[2] - (0 if resume is None else resume[2])
            return state

        def counted(method):
            def call(prefix, *rest, **kw):
                calls["backend"] += 1
                if rest:
                    calls["forced"] += len(rest[0])
                    text = kw.get("text")
                    if text is None:
                        text = backend.detokenize(prefix)
                    forced.append((text, rest[0]))
                return method(prefix, *rest, **kw)

            return call

        monkeypatch.setattr(dungeon, "_walk_transcript", counting_walk)
        monkeypatch.setattr(backend, "score_forced", counted(backend.score_forced))
        monkeypatch.setattr(
            backend, "next_distribution", counted(backend.next_distribution)
        )
        result = decode(dungeon.dungeon_source(instance), backend, config)
        # a re-score of the decoded transcript takes every action in it
        backend.score_forced((), result.best.tokens)
        monkeypatch.undo()
        taken = sum(_actions_taken(instance, text, cont) for text, cont in forced)
        assert taken >= len(result.bindings) > 0
        assert calls["forced"] > 10 * calls["backend"]
        assert calls["walks"] <= calls["backend"] + taken
        assert calls["fresh"] <= calls["backend"]
        # no decoded transcript holds more than MAX_STEPS actions, and each
        # call replays the actions of its prefix at most once
        assert calls["replayed"] <= dungeon.MAX_STEPS * calls["backend"]


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
    its rows without joining a prefix: ``detokenize`` only renders single
    tokens, and the decode is the one the joined prefixes give."""
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
    assert lengths and max(lengths) == 1
    assert carried == joined
    assert carried.best.text == detokenize(carried.best.tokens)
