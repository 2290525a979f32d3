"""Graph-escape task: dynamic transcripts, greedy detours, searched exits."""
import copy

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
    """The backend's resumed walk gives the row a fresh walk gives, exactly."""
    rows = dungeon.dungeon_backend(instance)._lookup
    fresh = _fresh_walk_rows(instance)
    for prefix in prefixes:
        assert rows(prefix) == fresh(prefix)


@st.composite
def walk_prefixes(draw):
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
    # runs of one-character extensions, as forced scoring asks for them,
    # interleaved across transcripts and starting anywhere, so the backend
    # both extends and backtracks
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


def test_forced_scoring_walks_from_scratch_at_most_once_per_call(monkeypatch):
    """A decode re-walks from the start at most once per backend call."""
    instance = dungeon.suite(0)[0]
    for config in (
        DecoderConfig(kind="argmax", width=1),
        DecoderConfig(kind="beamvar", width=2),
    ):
        backend = dungeon.dungeon_backend(instance)
        calls = {"walks": 0, "fresh": 0, "replayed": 0, "backend": 0, "forced": 0}
        walk = dungeon._walk_transcript

        def counting_walk(instance, messages, prefix, resume=None):
            calls["walks"] += 1
            calls["fresh"] += resume is None
            state = walk(instance, messages, prefix, resume)
            calls["replayed"] += state[2] - (0 if resume is None else resume[2])
            return state

        def counted(method):
            def call(prefix, *rest):
                calls["backend"] += 1
                if rest:
                    calls["forced"] += len(rest[0])
                return method(prefix, *rest)

            return call

        monkeypatch.setattr(dungeon, "_walk_transcript", counting_walk)
        monkeypatch.setattr(backend, "score_forced", counted(backend.score_forced))
        monkeypatch.setattr(
            backend, "next_distribution", counted(backend.next_distribution)
        )
        decode(dungeon.dungeon_source(instance), backend, config)
        monkeypatch.undo()
        # many forced characters per call, each looked up through the walk,
        # so one walk per character would break the bounds below
        assert calls["forced"] > 10 * calls["backend"]
        assert calls["walks"] >= calls["forced"]
        assert calls["fresh"] <= calls["backend"]
        # no decoded transcript holds more than MAX_STEPS actions, and each
        # call replays the actions of its prefix at most once
        assert calls["replayed"] <= dungeon.MAX_STEPS * calls["backend"]
