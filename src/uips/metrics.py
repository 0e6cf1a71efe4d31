"""Ranking metrics for learned-policy evaluation on a ``uips.synthetic.Split``,
whose 0/1 reward table marks the relevant actions of each context."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np


def rank_actions(scores: np.ndarray) -> np.ndarray:
    """Action ids sorted by descending score; ties break by ascending id."""
    scores = np.asarray(scores, dtype=float)
    return np.lexsort((np.arange(scores.size), -scores))


def _top_k(ranked: Sequence[int], relevant: Iterable[int], k: int) -> tuple[set, Sequence[int]]:
    """The relevant set and the first k ranked actions (all of them when fewer)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rel = set(relevant)
    if not rel:
        raise ValueError("relevant set must be non-empty")
    return rel, ranked[: min(k, len(ranked))]


def precision_at_k(ranked: Sequence[int], relevant: Iterable[int], k: int) -> float:
    rel, top = _top_k(ranked, relevant, k)
    return sum(1 for a in top if a in rel) / len(top)


def recall_at_k(ranked: Sequence[int], relevant: Iterable[int], k: int) -> float:
    rel, top = _top_k(ranked, relevant, k)
    return sum(1 for a in top if a in rel) / len(rel)


def ndcg_at_k(ranked: Sequence[int], relevant: Iterable[int], k: int) -> float:
    """Binary-gain NDCG with discount 1/log2(rank + 1), rank starting at 1."""
    rel, top = _top_k(ranked, relevant, k)
    dcg = sum(1.0 / math.log2(i + 2) for i, a in enumerate(top) if a in rel)
    ideal = sum(1.0 / math.log2(i + 2) for i in range(min(len(top), len(rel))))
    return dcg / ideal


def evaluate_policy(policy, split, k: int) -> tuple[float, float, float]:
    """Mean precision/recall/NDCG at k over the instances of ``split``.

    Actions are ranked by the policy's probability for each context; the tie
    order is deterministic (ascending action id), so results do not depend
    on instance order or score scale.
    """
    p_sum = r_sum = n_sum = 0.0
    for x, row in zip(split.xs, split.rewards):
        ranked = rank_actions(policy.distribution(x))
        relevant = np.flatnonzero(row).tolist()
        p_sum += precision_at_k(ranked, relevant, k)
        r_sum += recall_at_k(ranked, relevant, k)
        n_sum += ndcg_at_k(ranked, relevant, k)
    n = len(split)
    return p_sum / n, r_sum / n, n_sum / n
