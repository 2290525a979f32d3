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

The template's program and the backend take each action through one
step rule, so the backend predicts the text the template forces next.
Neither keeps per-hypothesis state, and neither reads text twice: the
program keeps the walk after each sequence of actions, so a run takes one
step from the run before it, and the backend (``DungeonLM``) keeps the
state each walked text ends in, and resumes there.  Each memo is a
bounded FIFO of immutable entries that threads may share.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..decoders import DecoderConfig, decode
from ..lm import LMBackend, TokenDistribution, Vocabulary, ordered_sum
from ..lm import _distribution, _logify, _remember
from ..sketch import Chunk, DynamicSketchSource, OneOf, Sketch, VariableSpec

MAX_STEPS = 10
ACTION_DIGITS = tuple(str(d) for d in range(10))

NEIGHBOR_PREFERENCE = 0.8  # lower room ids attract the model
VISIT_DISCOUNT = 0.05  # per prior visit of the candidate room
DET_CHAR_MASS = 0.95  # predicted next message character
ACTION_MASS = 0.97
TINY = 1e-9

# bounds, because the model's walk goes on past the exit and the step
# cap, so a scored text can reach states that no decode reaches
ACTION_MEMO_SIZE = 256
WALK_MEMO_SIZE = 256
REPLAY_MEMO_SIZE = 256

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


def gen_dungeon(seed: int, distance: int = 2) -> DungeonInstance:
    """Dungeon whose shortest exit route has the requested length (2 or 3).

    Room 0 is a decoy corridor entrance (the greedy favourite), room 1 the
    bridge toward the exit, and the exit carries the highest id so the
    crafted backend never favours it directly.
    """
    if distance not in (2, 3):
        raise ValueError("supported shortest distances are 2 and 3")
    rng = random.Random(seed)
    n = rng.randint(8, 10)
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
    )
    if shortest_distance(instance) != distance:
        # a decorative edge spoiled the distance; retry deterministically
        return gen_dungeon(seed + 7919, distance)
    return instance


def suite(seed: int = 0) -> list[DungeonInstance]:
    """Ten dungeons whose mean shortest route is 2.3 steps."""
    distances = (2, 2, 2, 2, 2, 2, 2, 3, 3, 3)
    return [
        gen_dungeon(seed * 1000 + i, distance)
        for i, distance in enumerate(distances)
    ]


# --- dynamic sketch -----------------------------------------------------------


_ACTION_SPECS = tuple(
    VariableSpec(name=f"ACTION_{index}", one_of=OneOf(ACTION_DIGITS), max_tokens=1)
    for index in range(MAX_STEPS)
)
_ACTION_NAMES = tuple(spec.name for spec in _ACTION_SPECS)


def _messages(instance: DungeonInstance) -> tuple[str, ...]:
    return tuple(
        room_message(node, name, instance.hallways[node])
        for node, name in enumerate(instance.rooms)
    )


def _step(
    instance: DungeonInstance,
    messages: tuple[str, ...],
    node: int,
    steps: int,
    target: int,
) -> tuple[int, str]:
    """The ``steps``-th action, to room ``target`` (-1 for a non-digit).

    Returns the node after it and the text after it: the newline, a
    correction for an invalid room (the walk stays put), and then the next
    prompt, the lose message at the step cap, or nothing at the exit.
    """
    neighbours = instance.hallways[node]
    text = "\n"
    if target in neighbours:
        node = target
    else:
        text += invalid_message(target, instance.rooms[node], neighbours)
    if instance.rooms[node] == "Exit":
        return node, text
    if steps >= MAX_STEPS:
        return node, text + LOSE_MESSAGE
    return node, text + messages[node]


def dungeon_source(instance: DungeonInstance) -> DynamicSketchSource:
    messages = _messages(instance)
    start = instance.start, messages[instance.start], False
    # actions bound so far -> (node, text after the last action, ended)
    replays: dict[tuple[str, ...], tuple[int, str, bool]] = {}

    def replay(actions: tuple[str, ...]) -> tuple[int, str, bool]:
        """One step from the walk before the last action, which is kept or
        replayed in turn; an action after the exit is never read."""
        kept = replays.get(actions)
        if kept is None:
            kept = start
            if actions:
                node, text, ended = kept = replay(actions[:-1])
                if not ended:
                    target = int(actions[-1])
                    node, text = _step(instance, messages, node, len(actions), target)
                    kept = node, text, instance.rooms[node] == "Exit"
            _remember(replays, actions, kept, REPLAY_MEMO_SIZE)
        return kept

    def program(values: dict[str, str]) -> list[Chunk]:
        # text before the last binding was already emitted with earlier runs;
        # the actions are the values bound in step order up to the first gap
        actions = tuple(map(values.get, _ACTION_NAMES[: len(values)]))
        if None in actions:
            actions = actions[: actions.index(None)]
        _, text, ended = replay(actions)
        if ended or len(actions) == MAX_STEPS:
            return [Chunk.det(text)]
        return [Chunk.det(text), Chunk.variable(_ACTION_SPECS[len(actions)])]

    return DynamicSketchSource(program)


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


# (pos, node, steps, visits, current): a segment and the actions before it
_State = tuple[int, int, int, dict[int, int], str]


def _segments(
    instance: DungeonInstance, messages: tuple[str, ...], text: str, start=None
) -> Iterator[_State]:
    """Walk ``text`` once, yielding the state of each segment it reaches,
    from the first or from ``start``: a state that the walk of a text
    sharing ``text[:pos]`` reached.

    ``current`` is the segment's text from ``pos`` up to its action, at
    ``pos + len(current)``; ``steps`` counts the actions before it;
    ``visits`` counts arrivals per node and is updated in place by the next
    step (``start``'s is copied first).  The walk goes on past the exit and
    the step cap, as a model asked about such a text would.
    """
    if start is None:
        node, steps, pos = instance.start, 0, 0
        visits, current = {node: 1}, messages[node]
    else:
        pos, node, steps, visits, current = start
        visits = dict(visits)
    while True:
        yield pos, node, steps, visits, current
        pos += len(current) + 1  # past the segment's action
        if len(text) < pos:
            return
        action = text[pos - 1]
        steps += 1
        target = int(action) if action.isdigit() else -1
        if target in instance.hallways[node]:
            visits[target] = visits.get(target, 0) + 1
        node, current = _step(instance, messages, node, steps, target)


def _action_probs(
    instance: DungeonInstance, node: int, visits: dict[int, int]
) -> list[float]:
    """The action row's probability of each digit, in digit order."""
    neighbours = instance.hallways[node]
    weights = [
        (NEIGHBOR_PREFERENCE**d) * (VISIT_DISCOUNT ** visits.get(d, 0))
        if d in neighbours
        else TINY
        for d in range(10)
    ]
    total = ordered_sum(weights)
    return [ACTION_MASS * w / total for w in weights]


def _det_prob(vocab: Vocabulary, char: str, token: str) -> float:
    """The probability of ``token`` in the row at message character
    ``char``: ``DET_CHAR_MASS`` on the character and the rest spread evenly,
    or uniform for a character outside the vocabulary."""
    n = len(vocab.tokens)
    if vocab.index_of(char) is None:
        return 1.0 / n
    return DET_CHAR_MASS if token == char else (1.0 - DET_CHAR_MASS) / (n - 1)


class DungeonLM(LMBackend):
    """The crafted backend: each row comes from walking the transcript.

    The row after a text is the action row at an action position, and
    otherwise the det row of the segment's next character, or the uniform
    row for a character outside the vocabulary.  The model keeps no
    per-hypothesis state, and each call walks its text once;
    ``score_forced`` walks prefix and continuation as one text.  A FIFO
    memo of at most ``WALK_MEMO_SIZE`` walked texts keeps the state each
    walk ended in, and a call resumes from that of its prefix text, or of
    that text less its last character (every token but EOS is one
    character), never from a state past the prefix; in a decode, a call
    steps at most one action.  Another keeps at most ``ACTION_MEMO_SIZE``
    action rows, keyed by the model state a row depends on: the node and
    its neighbours' visit counts.  A decode scores a message character
    that it forces as the top entry of its det row, so no det row is kept:
    a read elsewhere in a message builds the one entry or row it needs.
    """

    def __init__(self, instance: DungeonInstance):
        self.vocab = vocab = dungeon_vocab(instance)
        self._instance = instance
        self._messages = _messages(instance)
        # a det row's entry for the character it predicts
        self._det_logprob = math.log(DET_CHAR_MASS)
        # every action row gives each token but the digits the same entry,
        # so the memo's rows share these pairs and differ only in their digits
        self._digit_ids = tuple(map(vocab.index_of, ACTION_DIGITS))
        spread = math.log(
            (1.0 - ACTION_MASS) / (len(vocab.tokens) - len(ACTION_DIGITS))
        )
        self._spread_pairs = tuple(
            (t, spread) for t in range(len(vocab)) if t not in self._digit_ids
        )
        # (node, *neighbour visits) -> (distribution, log-probabilities by id)
        self._actions: dict[tuple, tuple[TokenDistribution, list[float]]] = {}
        # walked text -> the state of its walk's last segment
        self._walks: dict[str, _State] = {}

    def _action(
        self, node: int, visits: dict[int, int]
    ) -> tuple[TokenDistribution, list[float]]:
        """The action row at ``node``: its distribution and its
        log-probabilities by id."""
        key = (node, *[visits.get(n, 0) for n in self._instance.hallways[node]])
        memo = self._actions.get(key)
        if memo is None:
            probs = _action_probs(self._instance, node, visits)
            pairs = [*zip(self._digit_ids, _logify(probs)), *self._spread_pairs]
            lps = [lp for _, lp in sorted(pairs)]
            dist = TokenDistribution.from_pairs(pairs, complete=True)
            memo = _remember(self._actions, key, (dist, lps), ACTION_MEMO_SIZE)
        return memo

    def _walk(self, key: str, text: str) -> Iterator[_State]:
        """The states of ``text``'s walk from the kept state of its prefix
        ``key``, or of ``key`` less its last character, or else from the
        start; the last is kept under ``text``."""
        walks = self._walks
        start = walks.get(key) or walks.get(key[:-1])
        for state in _segments(self._instance, self._messages, text, start):
            yield state
        if text not in walks:
            _remember(walks, text, state, WALK_MEMO_SIZE)

    def next_distribution(
        self, prefix: Sequence[int], text: str | None = None
    ) -> TokenDistribution:
        key = self.detokenize(prefix) if text is None else text
        for pos, node, _, visits, current in self._walk(key, key):
            pass
        if len(key) - pos == len(current):
            return self._action(node, visits)[0]
        char = current[len(key) - pos]
        tokens = self.vocab.tokens
        return _distribution([_det_prob(self.vocab, char, t) for t in tokens])

    def score_forced(
        self,
        prefix: Sequence[int],
        continuation: Sequence[int],
        text: str | None = None,
    ) -> list[float]:
        """The rows ``next_distribution`` reads, from one walk of the
        prefix and continuation together, resumed where the prefix is."""
        tokens, eos = self.vocab.tokens, self.vocab.eos_index
        key = self.detokenize(prefix) if text is None else text
        walked = key + "".join(map(tokens.__getitem__, continuation))
        out: list[float] = []
        at, i, n = len(key), 0, len(continuation)  # text and token positions
        for pos, node, _, visits, current in self._walk(key, walked):
            action_at = pos + len(current)
            while i < n and at <= action_at:
                # k tokens up to the segment's action that hold no EOS spell
                # the next k characters; where those are the segment's, each
                # scores the top entry of that character's det row
                k = min(action_at - at, n - i)
                same = walked[at : at + k] == current[at - pos : at - pos + k]
                if k and same and eos not in continuation[i : i + k]:
                    out += [self._det_logprob] * k
                    at += k
                    i += k
                    continue
                t = continuation[i]
                if at == action_at:
                    out.append(self._action(node, visits)[1][t])
                else:
                    char = current[at - pos]
                    out.append(math.log(_det_prob(self.vocab, char, tokens[t])))
                at += len(tokens[t])
                i += 1
        return out


def dungeon_backend(instance: DungeonInstance) -> DungeonLM:
    return DungeonLM(instance)


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
    source: DynamicSketchSource | None = None,
    backend: DungeonLM | None = None,
) -> tuple[int | None, float]:
    """Decode the escape transcript; replay the chosen actions.

    Returns (steps to exit | None, best normalized score)."""
    source = dungeon_source(instance) if source is None else source
    backend = dungeon_backend(instance) if backend is None else backend
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
) -> list[DungeonReport]:
    configs = configs or [
        DecoderConfig(kind="argmax", width=1),
        DecoderConfig(kind="var", width=2, proposal="branch"),
        DecoderConfig(kind="beamvar", width=2),
    ]
    # a source's and a backend's memos depend on the instance only
    runs = [(i, dungeon_source(i), dungeon_backend(i)) for i in suite(seed)]
    reports = []
    for config in configs:
        steps_list = []
        norms = []
        for instance, source, backend in runs:
            steps, norm = run_dungeon(instance, config, source, backend)
            norms.append(norm)
            if steps is not None:
                steps_list.append(steps)
        reports.append(
            DungeonReport(
                decoder=config.kind,
                width=config.width,
                successes=len(steps_list),
                total=len(runs),
                mean_steps=(
                    sum(steps_list) / len(steps_list) if steps_list else None
                ),
                mean_normalized_score=ordered_sum(norms) / len(norms),
            )
        )
    return reports
