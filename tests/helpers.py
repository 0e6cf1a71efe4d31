"""Shared samplers and reference implementations used across test modules."""

import math
from dataclasses import replace
from typing import Optional

import numpy as np
import pytest

from uips.core import LoggedDataset, SoftmaxLinearPolicy, make_rng
from uips.core import BETA_FLOOR, TINY
from uips.estimators import PARAMETERS, Weighting, propensity_tables, propensity_weights
from uips.learning import TrainConfig
from uips.logging_fit import (
    LoggingFitConfig,
    LoggingModel,
    fit_logging_policy,
    uncertainties,
)
from uips.synthetic import BanditEnv
from uips.weights import GU_UNSCALED_MAX, UipsHyperParams

from oracles import WeightInput, confidence_interval, evaluate_policy_loop, prob

#: The propensity weighting kinds: every kind but the training-only ``ce``.
WEIGHT_KINDS = tuple(k for k in PARAMETERS if k != "ce")


def sample_weight_instances(n, seed, gamma=1.0, eta=1.0):
    """Random (input, interval, lam) triples with log-uniform ratio in [1e-3, 1e3],
    uncertainty in [0, 3] and lam log-uniform in [0.1, 50]."""
    rng = make_rng(seed)
    out = []
    for _ in range(n):
        beta_hat = float(10.0 ** rng.uniform(-3, 0))
        ratio = float(10.0 ** rng.uniform(-3, 3))
        pi = min(1.0, ratio * beta_hat)
        u = float(rng.uniform(0.0, 3.0))
        lam = float(10.0 ** rng.uniform(np.log10(0.1), np.log10(50.0)))
        winput = WeightInput(pi=pi, beta_hat=beta_hat, u=u)
        out.append((winput, confidence_interval(beta_hat, u, gamma, eta), lam))
    return out


def phi_star_scalar_reference(winput: WeightInput, hp: UipsHyperParams) -> tuple[float, str]:
    """The minimax weight and its branch for one sample, in scalar ``math`` arithmetic.

    Independent of ``uips.weights.phi_star_vector``, which evaluates the
    same formula with numpy and may differ from it in the last bit.
    """
    gu = hp.gamma * winput.u
    ratio = winput.pi / max(winput.beta_hat, BETA_FLOOR)
    gu_capped = min(gu, GU_UNSCALED_MAX)
    scale = math.exp(gu_capped - gu)
    e_neg, e_pos = math.exp(-gu) * scale, math.exp(gu_capped)
    denom = (hp.lam / hp.eta1) * e_neg + hp.eta1 * ratio * ratio * e_pos
    first = hp.lam * scale / denom if denom > 0 else math.inf
    cap = 2.0 * hp.eta2 * scale / (e_pos + e_neg)
    if first <= cap:
        return first, "first_term"
    return cap, "cap"


def count_ips_reference(dataset, policy, cap):
    """Dict-based empirical-propensity weighting, independent of the estimator module.

    Per-sample terms are built one record at a time from hand-rolled count
    tables; only the final averaging reuses numpy so that comparisons with
    the library value are exact rather than summation-order noise.
    """
    counts = {}
    group_sizes = {}
    for i in range(len(dataset)):
        key = dataset.xs[i].tobytes()
        group_sizes[key] = group_sizes.get(key, 0) + 1
        pair = (key, int(dataset.actions[i]))
        counts[pair] = counts.get(pair, 0) + 1
    terms = []
    for i in range(len(dataset)):
        key = dataset.xs[i].tobytes()
        emp = counts[(key, int(dataset.actions[i]))] / group_sizes[key]
        w = min(cap, prob(policy, dataset.xs[i], int(dataset.actions[i])) / emp)
        terms.append(w * dataset.rewards[i])
    return float(np.mean(np.asarray(terms)))


def uncertainty_table(model, xs):
    """The uncertainty of every (context, action) pair of ``xs``, shape (n, action_count):
    ``uncertainties`` of a log that holds each pair once, context-major."""
    n, a_count = len(xs), model.policy.action_count
    cells = LoggedDataset(
        xs=np.repeat(xs, a_count, axis=0), actions=np.tile(np.arange(a_count), n),
        rewards=np.zeros(n * a_count), action_count=a_count,
    )
    return uncertainties(model, cells).reshape(n, a_count)


def one_vs_all_reference(xs, y, lr=2.0, iters=400, l2=1e-3):
    """The environment's one-vs-all logistic fit as plain array expressions.

    Independent of ``uips.synthetic``, which runs the same iterations in
    place; ``build_env`` must reproduce this ``theta`` bit for bit.
    """
    n, d = xs.shape
    theta = np.zeros((y.shape[1], d))
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(xs @ theta.T)))
        grad = (p - y).T @ xs / n + l2 * theta
        theta -= lr * grad
    return theta


def dense_fit_reference(dataset, config):
    """The logging fit's epoch loop on dense (n, action_count) arrays.

    Independent of ``uips.logging_fit``: it evaluates the sigmoid, the
    negative counts and the loss at every cell, every epoch. The library
    fit must reproduce its ``theta`` and diagnostics bit for bit, from the
    same RNG stream. Returns ``(theta, diagnostics)``.
    """
    rng = make_rng(config.seed)
    n, d = dataset.xs.shape
    a_count = dataset.action_count
    theta = np.zeros((a_count, d))
    xs = dataset.xs
    acts = dataset.actions

    pos_mask = np.zeros((n, a_count))
    pos_mask[np.arange(n), acts] = 1.0
    k = min(config.negatives, a_count - 1)
    loss = float("nan")
    for _ in range(config.epochs):
        scores = xs @ theta.T
        with np.errstate(over="ignore", invalid="ignore"):
            p = 1.0 / (1.0 + np.exp(-scores))
        if k > 0:
            negs = rng.integers(0, a_count - 1, size=(n, k))
            negs = negs + (negs >= acts[:, None])
            flat = (np.arange(n)[:, None] * a_count + negs).ravel()
            neg_counts = np.bincount(flat, minlength=n * a_count).reshape(n, a_count).astype(float)
        else:
            neg_counts = np.zeros((n, a_count))
        dloss = (p - 1.0) * pos_mask + p * neg_counts
        grad = dloss.T @ xs / n + config.l2 * theta
        with np.errstate(over="ignore", invalid="ignore"):
            theta -= config.learning_rate * grad
        if not np.all(np.isfinite(theta)):
            raise RuntimeError("dense reference fit diverged")
        p_sel = p[np.arange(n), acts]
        loss = float(
            np.mean(-np.log(np.maximum(p_sel, 1e-300)))
            + np.sum(-neg_counts * np.log(np.maximum(1.0 - p, 1e-300))) / n
        )

    scores = xs @ theta.T
    median = np.median(scores, axis=1)
    frac_above = float(np.mean(scores[np.arange(n), acts] > median))
    diagnostics = {
        "final_loss": loss,
        "epochs": config.epochs,
        "frac_logged_above_median_score": frac_above,
    }
    return theta, diagnostics


def dense_log_reference(env, rng, split, n_samples=None, samples_per_context=None):
    """Actions and true logging probabilities of ``generate_log`` (``n_samples``) or
    ``generate_log_per_context`` (``samples_per_context``), drawn from the same RNG stream.

    Independent of ``uips.synthetic``: it gathers the logging probabilities of
    every drawn row into one (n, action_count) matrix, takes its row-wise
    cumulative sum, and picks per draw the first action whose cumulative
    probability reaches the uniform draw, or the last action where rounding
    leaves every one below it. Returns ``(actions, true_logging_probs)``.
    """
    xs = env.split(split).xs
    if n_samples is not None:
        idx = rng.integers(0, len(xs), size=n_samples)
    else:
        idx = np.repeat(np.arange(len(xs)), samples_per_context)
    probs = env.logging_policy.distribution_matrix(xs)[idx]
    cdf = np.cumsum(probs, axis=1)
    reached = cdf >= rng.random(len(idx))[:, None]
    actions = np.where(reached.any(axis=1), reached.argmax(axis=1), env.action_count - 1)
    return actions, probs[np.arange(len(idx)), actions]


#: How far ``learning.train`` may stray from :func:`reference_train`: its steps and trace
#: add each context's rows before the contexts, the reference row by row. Measured
#: deviations stay below 2e-14 of an element of theta and 7e-16 of a trace value.
TRAIN_RTOL = 1e-12


def assert_train_matches_reference(policy, trace, ref_policy, ref_trace=None):
    """``policy`` and ``trace`` of ``learning.train`` equal the reference's within
    :data:`TRAIN_RTOL`; a trace cell that is None must be None in both."""
    np.testing.assert_allclose(policy.theta, ref_policy.theta, rtol=TRAIN_RTOL, atol=0)
    if ref_trace is None:
        return
    assert [r.keys() for r in trace] == [r.keys() for r in ref_trace]
    for record, ref in zip(trace, ref_trace):
        for key, value in record.items():
            if ref[key] is None:
                assert value is None, key
            else:
                assert value == pytest.approx(ref[key], rel=TRAIN_RTOL, abs=0), key


def per_sample_tables(tables):
    """``tables`` with one row per sample: the row tables gathered through ``rows``."""
    return replace(
        tables, rows=np.arange(len(tables.actions)), contexts=None,
        beta_rows=None if tables.beta_rows is None else tables.beta_rows[tables.rows],
    )


def reference_train(
    dataset: LoggedDataset,
    model: Optional[LoggingModel],
    config: TrainConfig,
    env: Optional[BanditEnv] = None,
) -> tuple[SoftmaxLinearPolicy, list[dict]]:
    """``learning.train`` as one loop, with its steps and epoch records inline.

    Independent of ``uips.learning``'s step loop and gradients: every step
    recomputes ``beta_hat`` for its batch (uncertainties and count
    propensities come from the full log, as in training) and writes the
    log-trick gradient as ``((onehot - pi) * coeff).T @ xs / (tau * B)``,
    and every epoch record computes its own softmaxes, weights, true-gradient
    norm and, one context at a time, validation ranking metrics. The library
    ``train`` must reproduce its policy and its trace records within
    :data:`TRAIN_RTOL`, since it sums the gradient per distinct context; its
    weights and ranking inputs are the same bits. Returns ``(policy, trace)``.
    """
    rng = make_rng(config.seed)
    if model is None and config.weighting.kind not in ("ce", "ips_true", "dice_s"):
        model = fit_logging_policy(dataset, LoggingFitConfig(seed=config.seed))

    full = per_sample_tables(propensity_tables(dataset, model))
    truth = (
        per_sample_tables(propensity_tables(dataset, None))
        if dataset.true_logging_probs is not None else None
    )
    onehot = np.eye(dataset.action_count)

    def gradient(policy, batch, tables, weighting):
        pi = policy.distribution_matrix(batch.xs)
        w = propensity_weights(weighting, tables, pi)
        if weighting.kind == "snips":
            w = w / max(w.sum(), TINY) * len(batch)
        coeff = w * batch.rewards
        return ((onehot[batch.actions] - pi) * coeff[:, None]).T @ batch.xs / (policy.tau * len(batch))

    theta = np.zeros((dataset.action_count, dataset.dim))
    policy = SoftmaxLinearPolicy(theta=theta, tau=1.0)
    trace = []
    n = len(dataset)
    validation = env.validation if env is not None else None

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            batch = dataset.subset(batch_idx)
            tables = replace(
                per_sample_tables(propensity_tables(batch, model)),
                us=None if full.us is None else full.us[batch_idx],
                counts=None if full.counts is None else full.counts[batch_idx],
            )
            grad = gradient(policy, batch, tables, config.weighting)
            with np.errstate(over="ignore", invalid="ignore"):
                theta = theta + config.learning_rate * grad
            if not np.all(np.isfinite(theta)):
                raise RuntimeError(
                    f"training diverged to non-finite parameters at epoch {epoch}"
                )
            policy = SoftmaxLinearPolicy(theta=theta, tau=1.0)

        record = {"epoch": epoch}
        w = propensity_weights(config.weighting, full, policy.distribution_matrix(dataset.xs))
        if config.weighting.kind == "snips":
            w = w / max(w.sum(), TINY) * n
        coeff = w * dataset.rewards
        if config.weighting.kind == "snips":
            record["value"] = float(coeff.sum() / max(w.sum(), TINY))
        else:
            record["value"] = float(coeff.mean())
        record["max_weight"] = float(w.max())
        if validation is not None and epoch % config.eval_every == 0:
            p, r, ndcg = evaluate_policy_loop(policy, validation, config.k_eval)
            record.update({"p_at_k": p, "r_at_k": r, "ndcg_at_k": ndcg})
        else:
            record.update({"p_at_k": None, "r_at_k": None, "ndcg_at_k": None})
        record["grad_norm"] = (
            float(np.linalg.norm(gradient(policy, dataset, truth, Weighting(kind="ips_true"))))
            if truth is not None else None
        )
        trace.append(record)

    return policy, trace
