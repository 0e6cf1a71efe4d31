"""Ranking metrics for learned-policy evaluation on a ``uips.synthetic.Split``,
whose 0/1 reward table marks the relevant actions of each context."""

from __future__ import annotations

import math

import numpy as np


def evaluate_policy(policy, split, k: int) -> tuple[float, float, float]:
    """Mean precision/recall/NDCG at k over the instances of ``split``.

    Each context ranks the actions by the policy's probability, descending;
    ties go to the lower action id, so results do not depend on instance
    order or score scale. The top ``min(k, A)`` ranks count: P@k divides
    their hits by that width, R@k by the number of relevant actions, and
    NDCG@k is binary-gain DCG with discount 1/log2(rank + 1), rank from 1,
    over the DCG of a perfect ranking. Sums run rank by rank and row by row
    (``np.cumsum``), so every value is the one a scalar loop gives.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    top = np.argsort(-policy.distribution_matrix(split.xs), axis=1, kind="stable")[:, :k]
    hits = np.take_along_axis(split.rewards, top, axis=1)
    width = top.shape[1]
    discount = np.array([1.0 / math.log2(rank + 1) for rank in range(1, width + 1)])
    relevant = split.rewards.sum(axis=1)
    n_hits = hits.sum(axis=1)
    dcg = np.cumsum(hits * discount, axis=1)[:, -1]
    ideal = np.cumsum(discount)[np.minimum(relevant, width).astype(int) - 1]
    per_row = (n_hits / width, n_hits / relevant, dcg / ideal)
    return tuple(float(np.cumsum(values)[-1] / len(split)) for values in per_row)
