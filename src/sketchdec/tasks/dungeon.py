"""Graph-escape task driven by a dynamic sketch.

An agent wanders a small dungeon by answering "Where do you want to go?"
prompts with room numbers.  The template is generated on the fly from the
bindings so far: each answered action produces the next system message,
an invalid room produces a correction, and the walk ends at the exit or
at the step cap.

The crafted backend prefers low room numbers and discounts rooms already
visited, so greedy decoding explores depth-first down a decoy corridor,
while a width-2 search keeps the unassuming bridge room alive and exits
via the shortest route.  Deterministic message characters are predicted
almost surely, so transcript length differences cost little and action
choices dominate hypothesis ranking.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from ..decoders import DecoderConfig, decode
from ..lm import TableLM, Vocabulary, ordered_sum
from ..scoring import ScoreParams
from ..sketch import Chunk, DynamicSketchSource, OneOf, Sketch, VariableSpec

MAX_STEPS = 10
ACTION_DIGITS = tuple(str(d) for d in range(10))

NEIGHBOR_PREFERENCE = 0.8  # lower room ids attract the model
VISIT_DISCOUNT = 0.05  # per prior visit of the candidate room
DET_CHAR_MASS = 0.95  # predicted next message character
ACTION_MASS = 0.97
TINY = 1e-9

ROOM_NAMES = (
    "Cellar",
    "Larder",
    "Vestry",
    "Armory",
    "Chapel",
    "Stable",
    "Gallery",
    "Passage",
    "Archive",
    "Atrium",
    "Foyer",
    "Vault",
)


def room_message(node: int, name: str, neighbours: tuple[int, ...]) -> str:
    return (
        f"System: You are in room {node} '{name}'. "
        f"You can go to {list(neighbours)}. "
        f"Where do you want to go?\nYou:"
    )


def invalid_message(next_node: int, name: str, neighbours: tuple[int, ...]) -> str:
    return (
        f"System: {next_node} is not a valid neighboring room of "
        f"'{name}'. Valid rooms are {list(neighbours)}.\n"
    )


LOSE_MESSAGE = "System: You have taken too many steps. You lose.\n"


@dataclass(frozen=True)
class DungeonInstance:
    """Rooms by id, symmetric hallways, a start, and an exit named "Exit"."""

    rooms: tuple[str, ...]
    hallways: tuple[tuple[int, ...], ...]
    start: int
    exit: int
    shortest: int
    seed: int

    def __post_init__(self):
        if len(self.rooms) != len(self.hallways):
            raise ValueError("rooms and hallways must align")
        if self.rooms[self.exit] != "Exit":
            raise ValueError("the exit room must be named 'Exit'")
        if self.rooms[self.start] == "Exit":
            raise ValueError("the walk must not start at the exit")


def shortest_distance(instance: DungeonInstance) -> int:
    """Breadth-first distance from start to exit; -1 when unreachable."""
    frontier = [instance.start]
    dist = {instance.start: 0}
    while frontier:
        nxt = []
        for node in frontier:
            for nb in instance.hallways[node]:
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist.get(instance.exit, -1)


# --- generation ---------------------------------------------------------------


def gen_dungeon(seed: int, distance: int = 2, n_rooms: int | None = None) -> DungeonInstance:
    """Dungeon whose shortest exit route has the requested length (2 or 3).

    Room 0 is a decoy corridor entrance (the greedy favourite), room 1 the
    bridge toward the exit, and the exit carries the highest id so the
    crafted backend never favours it directly.
    """
    if distance not in (2, 3):
        raise ValueError("supported shortest distances are 2 and 3")
    rng = random.Random(seed)
    n = n_rooms if n_rooms is not None else rng.randint(8, 10)
    exit_node = n - 1
    reserved = {0, 1, exit_node} | ({2} if distance == 3 else set())
    start = rng.choice([i for i in range(n - 1) if i not in reserved])
    chain = [i for i in range(n - 1) if i not in reserved and i != start]

    edges = {(start, 0), (start, 1)}
    if distance == 2:
        edges.add((1, exit_node))
    else:
        edges.add((1, 2))
        edges.add((2, exit_node))
    corridor = [0] + chain + [exit_node]
    for a, b in zip(corridor, corridor[1:]):
        edges.add((a, b))
    if len(chain) >= 3 and rng.random() < 0.5:
        a, b = rng.sample(chain, 2)  # decorative shortcut inside the corridor
        edges.add((min(a, b), max(a, b)))

    adjacency = [set() for _ in range(n)]
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    names = rng.sample(ROOM_NAMES, n - 1)
    rooms = tuple(names) + ("Exit",)
    instance = DungeonInstance(
        rooms=rooms,
        hallways=tuple(tuple(sorted(adj)) for adj in adjacency),
        start=start,
        exit=exit_node,
        shortest=distance,
        seed=seed,
    )
    if shortest_distance(instance) != distance:
        # a decorative edge spoiled the distance; retry deterministically
        return gen_dungeon(seed + 7919, distance, n_rooms)
    return instance


def suite(seed: int = 0) -> list[DungeonInstance]:
    """Ten dungeons whose mean shortest route is 2.3 steps."""
    distances = (2, 2, 2, 2, 2, 2, 2, 3, 3, 3)
    return [
        gen_dungeon(seed * 1000 + i, distance)
        for i, distance in enumerate(distances)
    ]


# --- dynamic sketch -----------------------------------------------------------


# one spec per step, all over one OneOf, so a decode's constraint index
# (keyed by the members tuple) shares its entries across hypotheses
_ACTIONS = OneOf(members=ACTION_DIGITS)
_ACTION_SPECS = tuple(
    VariableSpec(name=f"ACTION_{index}", one_of=_ACTIONS, max_tokens=1)
    for index in range(MAX_STEPS)
)


def dungeon_source(instance: DungeonInstance) -> DynamicSketchSource:
    def program(values: dict[str, str], seed: int) -> list[Chunk]:
        node = instance.start
        steps = 0
        pending = ""
        index = 0
        while True:
            if instance.rooms[node] == "Exit":
                return [Chunk.det(pending)] if pending else []
            if steps >= MAX_STEPS:
                return [Chunk.det(pending + LOSE_MESSAGE)]
            name = f"ACTION_{index}"
            neighbours = instance.hallways[node]
            if name not in values:
                prompt = room_message(node, instance.rooms[node], neighbours)
                return [Chunk.det(pending + prompt), Chunk.variable(_ACTION_SPECS[index])]
            action = values[name]
            index += 1
            steps += 1
            # text before this binding was already emitted with earlier runs
            pending = "\n"
            target = int(action)
            if target in neighbours:
                node = target
            else:
                pending += invalid_message(target, instance.rooms[node], neighbours)

    return DynamicSketchSource(program, seed=instance.seed, name="dungeon")


# --- crafted backend ----------------------------------------------------------


def dungeon_vocab(instance: DungeonInstance) -> Vocabulary:
    sample_neighbours = tuple(range(10))
    corpus = (
        room_message(0, "X", sample_neighbours)
        + invalid_message(0, "X", sample_neighbours)
        + LOSE_MESSAGE
        + "".join(instance.rooms)
        + "".join(ROOM_NAMES)
        + "".join(ACTION_DIGITS)
    )
    return Vocabulary(tokens=("",) + tuple(sorted(set(corpus))), eos_index=0)


# (pos, node, steps, visits, current): see _walk_transcript
_Walk = tuple[int, int, int, dict[int, int], str]


def _walk_transcript(
    instance: DungeonInstance,
    messages: tuple[str, ...],
    prefix: str,
    resume: _Walk | None = None,
) -> _Walk:
    """Replay a transcript prefix against the instance.

    ``messages[node]`` is ``room_message`` for that node.  Returns the walk
    state at the start of the segment ``prefix`` ends in: (pos, node,
    steps, visits, current), where ``current`` is the segment's text from
    ``pos`` up to the next action and ``visits`` counts arrivals per node.
    ``resume`` is such a state for a shorter prefix of ``prefix``; the walk
    then replays only the actions after it.  Costs O(actions replayed),
    not O(characters).  A returned state is never mutated afterwards: a
    move copies ``visits``.
    """
    if resume is None:
        node = instance.start
        resume = (0, node, 0, {node: 1}, messages[node])
    pos, node, steps, visits, current = resume
    while len(prefix) > pos + len(current):
        action_char = prefix[pos + len(current)]
        pos += len(current) + 1
        steps += 1
        tail = "\n"
        neighbours = instance.hallways[node]
        target = int(action_char) if action_char.isdigit() else -1
        if target in neighbours:
            node = target
            visits = {**visits, node: visits.get(node, 0) + 1}
        else:
            tail += invalid_message(target, instance.rooms[node], neighbours)
        if instance.rooms[node] == "Exit":
            current = tail
        elif steps >= MAX_STEPS:
            current = tail + LOSE_MESSAGE
        else:
            current = tail + messages[node]
    return pos, node, steps, visits, current


def _action_row(
    vocab: Vocabulary, instance: DungeonInstance, node: int, visits: dict[int, int]
) -> list[float]:
    weights: dict[str, float] = {}
    for d in range(10):
        if d in instance.hallways[node]:
            weights[str(d)] = (NEIGHBOR_PREFERENCE**d) * (
                VISIT_DISCOUNT ** visits.get(d, 0)
            )
        else:
            weights[str(d)] = TINY
    total = ordered_sum(weights.values())
    row = []
    spread = (1.0 - ACTION_MASS) / (len(vocab.tokens) - len(weights))
    for t in vocab.tokens:
        if t in weights:
            row.append(ACTION_MASS * weights[t] / total)
        else:
            row.append(spread)
    return row


def _det_row(vocab: Vocabulary, char: str) -> list[float]:
    spread = (1.0 - DET_CHAR_MASS) / (len(vocab.tokens) - 1)
    return [DET_CHAR_MASS if t == char else spread for t in vocab.tokens]


def dungeon_backend(instance: DungeonInstance) -> TableLM:
    vocab = dungeon_vocab(instance)
    uniform = [1.0 / len(vocab.tokens)] * len(vocab.tokens)
    # built once per backend and dropped with it: every forced character
    # fetches one of these rows, and every replayed step a room message
    messages = tuple(
        room_message(node, name, instance.hallways[node])
        for node, name in enumerate(instance.rooms)
    )
    det_rows = {t: _det_row(vocab, t) for t in vocab.tokens if t}
    # (transcript text up to the checkpoint, checkpoint), replaced whole so
    # that text and checkpoint always come from one walk.  Forced scoring
    # asks for each one-character extension of a prefix in turn, so a lookup
    # resumes from the last segment start instead of replaying every action;
    # a prefix off this walk (another hypothesis) walks from the start.
    cursor = ("", _walk_transcript(instance, messages, ""))

    def rows(prefix: str) -> list[float]:
        nonlocal cursor
        text, checkpoint = cursor
        on_walk = prefix.startswith(text)
        walk = _walk_transcript(
            instance, messages, prefix, checkpoint if on_walk else None
        )
        if not on_walk or walk[0] != len(text):
            cursor = (prefix[: walk[0]], walk)
        pos, node, _, visits, current = walk
        if len(prefix) - pos == len(current):
            return _action_row(vocab, instance, node, visits)
        return det_rows.get(current[len(prefix) - pos], uniform)

    return TableLM(vocab, rows, default_row=uniform, check_rows=False)


# --- running ------------------------------------------------------------------


def replay_actions(instance: DungeonInstance, actions: list[str]) -> int | None:
    """Independent checker: walk the actions through the graph.

    Returns the number of steps taken when the exit is reached, None when
    the walk never gets there.  Invalid moves cost a step and stay put.
    """
    node = instance.start
    steps = 0
    for action in actions:
        steps += 1
        target = int(action)
        if target in instance.hallways[node]:
            node = target
        if instance.rooms[node] == "Exit":
            return steps
    return None


def run_dungeon(
    instance: DungeonInstance,
    config: DecoderConfig,
    backend: TableLM | None = None,
) -> tuple[int | None, float]:
    """Decode the escape transcript; replay the chosen actions.

    Returns (steps to exit | None, best normalized score)."""
    backend = backend or dungeon_backend(instance)
    source = dungeon_source(instance)
    result = decode(source, backend, config)
    actions = [b.value for b in result.bindings]
    return replay_actions(instance, actions), result.best.normalized_score(
        config.score
    )


@dataclass(frozen=True)
class DungeonReport:
    decoder: str
    width: int
    successes: int
    total: int
    mean_steps: float | None  # over successful walks
    mean_normalized_score: float


def run_dungeon_task(
    configs: list[DecoderConfig] | None = None,
    seed: int = 0,
    score: ScoreParams | None = None,
) -> list[DungeonReport]:
    score = score or ScoreParams()
    configs = configs or [
        DecoderConfig(kind="argmax", width=1, score=score),
        DecoderConfig(kind="var", width=2, proposal="branch", score=score),
        DecoderConfig(kind="beamvar", width=2, score=score),
    ]
    instances = suite(seed)
    reports = []
    for config in configs:
        steps_list = []
        norms = []
        for instance in instances:
            steps, norm = run_dungeon(instance, config)
            norms.append(norm)
            if steps is not None:
                steps_list.append(steps)
        reports.append(
            DungeonReport(
                decoder=config.kind,
                width=config.width,
                successes=len(steps_list),
                total=len(instances),
                mean_steps=(
                    sum(steps_list) / len(steps_list) if steps_list else None
                ),
                mean_normalized_score=ordered_sum(norms) / len(norms),
            )
        )
    return reports
