"""Decoding-tree capture: every expansion, pruning, and completion event.

Nodes are emitted in (step, pool, rank) order with sequential ids, so the
NDJSON rendering is deterministic for a given decode.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class TraceNode:
    """One event of a decode.

    A selection node ("expanded" or "pruned") is one candidate, under the
    node of the hypothesis it was expanded from: ``token_text`` renders
    every token past that hypothesis (one token in a token step, a whole
    value in a variable step), and ``logprob`` adds those tokens'
    log-probabilities in order.  A "forced" node holds the deterministic
    text a settle appended, and the in-order sum of its chunks'
    log-probabilities; a "done" node holds "" and 0.0.  ``norm_score`` is
    the normalized score of the hypothesis reached.
    """

    id: int
    parent: int | None
    token_text: str
    logprob: float
    norm_score: float
    pool: int | None
    status: str  # "expanded" | "pruned" | "done" | "forced"


@dataclass(frozen=True)
class DecodingTree:
    nodes: tuple[TraceNode, ...]

    def to_ndjson(self) -> str:
        lines = (json.dumps(asdict(n), ensure_ascii=False) for n in self.nodes)
        return "\n".join(lines) + "\n"


class TraceRecorder:
    """Collects trace nodes during a decode; the root is created eagerly."""

    def __init__(self):
        self._nodes: list[TraceNode] = [
            TraceNode(
                id=0,
                parent=None,
                token_text="",
                logprob=0.0,
                norm_score=0.0,
                pool=0,
                status="expanded",
            )
        ]

    def add(
        self,
        parent: int,
        token_text: str,
        logprob: float,
        norm_score: float,
        pool: int | None,
        status: str,
    ) -> int:
        node_id = len(self._nodes)
        self._nodes.append(
            TraceNode(
                id=node_id,
                parent=parent,
                token_text=token_text,
                logprob=logprob,
                norm_score=norm_score,
                pool=pool,
                status=status,
            )
        )
        return node_id

    def tree(self) -> DecodingTree:
        return DecodingTree(nodes=tuple(self._nodes))

