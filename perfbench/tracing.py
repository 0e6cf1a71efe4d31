"""Opt-in tracing of the uips layers from outside the package.

:func:`installed` rebinds the public functions of every ``uips`` module,
wherever a ``uips`` module imported them, plus a few public methods, to
wrappers that record one span per call: name, parent, start and end.
Spans stay in memory; the caller writes them out when the run ends.
Nothing is wrapped unless a tracer is installed, and leaving the context
puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: The layers are the modules of ``src/uips``.
LAYERS = ("core", "synthetic", "logging_fit", "weights", "estimators", "learning", "metrics", "cli")

# Per-item helpers called tens of thousands of times per unit; a span each
# would cost more than the helpers do, so they count toward their caller.
UNTRACED = {
    "core.make_rng",
    "metrics.rank_actions",
    "metrics.precision_at_k",
    "metrics.recall_at_k",
    "metrics.ndcg_at_k",
}

METHODS = (
    ("core", "SoftmaxLinearPolicy", "distribution_matrix"),
    ("core", "SoftmaxLinearPolicy", "save"),
    ("core", "LoggedDataset", "to_jsonl"),
    ("core", "LoggedDataset", "from_jsonl"),
    ("logging_fit", "LoggingModel", "save"),
    ("logging_fit", "LoggingModel", "load"),
    ("synthetic", "BanditEnv", "save"),
    ("synthetic", "BanditEnv", "load"),
)

IO_SPANS = frozenset({
    "core.SoftmaxLinearPolicy.save",
    "core.LoggedDataset.to_jsonl",
    "core.LoggedDataset.from_jsonl",
    "logging_fit.LoggingModel.save",
    "logging_fit.LoggingModel.load",
    "synthetic.BanditEnv.save",
    "synthetic.BanditEnv.load",
    "cli.load_config",
    "cli.write_csv",
    "cli.write_json",
})

CLI_COMMANDS = ("generate", "fit-logging", "train", "sweep", "ope", "inspect-weights")

TRACED_MARK = "__perfbench_traced__"


@dataclass(slots=True)
class Span:
    name: str
    parent: Optional[int]
    trace: int
    start: float
    end: Optional[float] = None
    attrs: Optional[dict] = None


class Tracer:
    """In-memory span recorder; a span's id is its index in ``spans``.

    Spans of one unit of work share a trace id: the id of their root span.
    Fitted or loaded logging models are registered by the id of their
    policy, with a strong reference so that the id cannot be reused, which
    tells ``beta_hat`` recomputation apart from target-policy calls.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._logging_policies: dict[int, object] = {}

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        trace = self._stack[0] if self._stack else sid
        self.spans.append(Span(name, parent, trace, time.perf_counter()))
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while span {popped} was open")

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)
            if attrs:
                self.spans[sid].attrs = attrs

    def bookkeeping(self, fn):
        """Run a counting helper in its own span, so no layer is charged for it."""
        with self.span("trace.bookkeeping"):
            return fn()

    def register_logging_model(self, model) -> None:
        self._logging_policies[id(model.policy)] = model.policy

    def is_logging_policy(self, policy) -> bool:
        return self._logging_policies.get(id(policy)) is policy

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": s.parent, "trace": s.trace, "name": s.name,
                    "start": s.start, "end": s.end, "attrs": s.attrs or {},
                }) + "\n")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _fit_counts(tracer, args, kwargs):
    dataset = _arg(args, kwargs, 0, "dataset")
    epochs = _arg(args, kwargs, 1, "config").epochs

    def count():
        n = len(dataset)
        return {
            "rows": n,
            "distinct": int(np.unique(dataset.xs, axis=0).shape[0]),
            "epochs": epochs,
            "cells": n * dataset.action_count * epochs,
        }

    return tracer.bookkeeping(count)


def _register_model(tracer, args, kwargs, model):
    tracer.register_logging_model(model)


def _logging_call(tracer, args, kwargs):
    return {"logging": 1} if tracer.is_logging_policy(args[0]) else None


def _rows(tracer, args, kwargs, dataset):
    return {"rows": len(dataset)}


def _file_bytes(index, name):
    def hook(tracer, args, kwargs, result=None):
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}
    return hook


# name -> (hook before the call, hook after the call); each returns span attributes
HOOKS = {
    "logging_fit.fit_logging_policy": (_fit_counts, _register_model),
    "logging_fit.accumulate_grams": (None, _register_model),
    "logging_fit.LoggingModel.load": (None, _register_model),
    "core.SoftmaxLinearPolicy.distribution_matrix": (_logging_call, None),
    "synthetic.generate_log": (None, _rows),
    "synthetic.generate_log_per_context": (None, _rows),
    "metrics.evaluate_policy": (lambda t, a, k: {"instances": len(_arg(a, k, 1, "instances"))}, None),
    "estimators.ope_mse_experiment": (None, lambda t, a, k, result: {"estimates": len(result.rows)}),
    "core.LoggedDataset.to_jsonl": (None, _file_bytes(1, "path")),
    "core.LoggedDataset.from_jsonl": (_file_bytes(1, "path"), None),
    "cli.write_csv": (None, _file_bytes(0, "path")),
    "cli.write_json": (None, _file_bytes(0, "path")),
}


def _wrap(tracer: Tracer, name: str, fn):
    pre, post = HOOKS.get(name, (None, None))

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = pre(tracer, args, kwargs) if pre else None
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if post:
            more = post(tracer, args, kwargs, result)
            if more:
                attrs = {**(attrs or {}), **more}
        if attrs:
            tracer.spans[sid].attrs = attrs
        return result

    setattr(traced, TRACED_MARK, True)
    return traced


def _uips_modules():
    return [m for n, m in list(sys.modules.items()) if n == "uips" or n.startswith("uips.")]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the uips layers for the duration of the ``with`` block."""
    modules = {layer: importlib.import_module(f"uips.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj) and obj.__module__ == mod.__name__
                and not attr.startswith("_") and name not in UNTRACED
            ):
                wrappers[id(obj)] = (obj, _wrap(tracer, name, obj))
    restore = []
    try:
        for mod in _uips_modules():
            for attr, obj in list(vars(mod).items()):
                pair = wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    restore.append((mod, attr, obj))
                    setattr(mod, attr, pair[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(tracer, name, raw.__func__))
            else:
                new = _wrap(tracer, name, raw)
            restore.append((cls, meth, raw))
            setattr(cls, meth, new)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Names still bound to a tracing wrapper; empty once tracing is removed."""
    found = []
    for mod in _uips_modules():
        for attr, obj in vars(mod).items():
            if getattr(obj, TRACED_MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, raw in vars(obj).items():
                    if getattr(getattr(raw, "__func__", raw), TRACED_MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(s.start, s.end, children.get(sid, ()))
        for sid, s in enumerate(spans)
    ]


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``rounds`` traced rounds, per round."""
    selfs = self_times(spans)
    total, self_, calls = Counter(), Counter(), Counter()
    attrs: dict[str, Counter] = defaultdict(Counter)
    layer_self = Counter()
    steps = io_s = 0.0
    for s, st in zip(spans, selfs):
        total[s.name] += s.end - s.start
        self_[s.name] += st
        calls[s.name] += 1
        if s.attrs:
            attrs[s.name].update(s.attrs)
        layer_self[s.name.split(".")[0]] += st
        parent = spans[s.parent] if s.parent is not None else None
        if s.name == "learning.weighted_gradient" and parent is not None and parent.name == "learning.train":
            steps += 1
        if s.name in IO_SPANS:
            p = parent
            while p is not None and p.name not in IO_SPANS:
                p = spans[p.parent] if p.parent is not None else None
            if p is None:
                io_s += s.end - s.start

    fit = "logging_fit.fit_logging_policy"
    gen = ("synthetic.generate_log", "synthetic.generate_log_per_context")
    jsonl = ("core.LoggedDataset.to_jsonl", "core.LoggedDataset.from_jsonl")
    dm = "core.SoftmaxLinearPolicy.distribution_matrix"
    m = {
        "synthetic.build_env_s": total["synthetic.build_env"],
        "synthetic.build_env_calls": calls["synthetic.build_env"],
        "synthetic.generate_log_s": sum(total[n] for n in gen),
        "synthetic.rows_generated": sum(attrs[n]["rows"] for n in gen),
        "logging_fit.fit_s": total[fit],
        "logging_fit.fit_calls": calls[fit],
        "logging_fit.fit_epoch_s": total[fit] / attrs[fit]["epochs"] if attrs[fit]["epochs"] else 0.0,
        "logging_fit.fit_cells": attrs[fit]["cells"],
        "logging_fit.distinct_context_ratio": (
            attrs[fit]["distinct"] / attrs[fit]["rows"] if attrs[fit]["rows"] else 0.0
        ),
        "logging_fit.accumulate_grams_s": total["logging_fit.accumulate_grams"],
        "logging_fit.uncertainties_s": total["logging_fit.uncertainties"],
        "weights.phi_star_vector_s": total["weights.phi_star_vector"],
        "weights.phi_star_vector_calls": calls["weights.phi_star_vector"],
        "weights.phi_star_branch_s": total["weights.phi_star_branch"],
        "weights.phi_star_branch_calls": calls["weights.phi_star_branch"],
        "estimators.estimates": attrs["estimators.ope_mse_experiment"]["estimates"],
        "core.distribution_matrix_s": total[dm],
        "core.distribution_matrix_calls": calls[dm],
        "core.distribution_matrix_logging_calls": attrs[dm]["logging"],
        "core.policy_matrix_s": total["core.policy_matrix"],
        "core.jsonl_s": sum(total[n] for n in jsonl),
        "core.jsonl_bytes": sum(attrs[n]["bytes"] for n in jsonl),
        "learning.train_self_s": self_["learning.train"],
        "learning.train_calls": calls["learning.train"],
        "learning.steps": steps,
        "learning.weighted_gradient_s": total["learning.weighted_gradient"],
        "learning.true_gradient_norm_s": total["learning.true_gradient_norm"],
        "metrics.evaluate_policy_s": total["metrics.evaluate_policy"],
        "metrics.evaluate_policy_calls": calls["metrics.evaluate_policy"],
        "metrics.instances_ranked": attrs["metrics.evaluate_policy"]["instances"],
        "cli.io_s": io_s,
        "trace.unattributed_s": layer_self["bench"],
        "trace.bookkeeping_s": total["trace.bookkeeping"],
        "trace.spans": len(spans),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = total[f"bench.cli.{cmd}"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    per_round = {k: v / rounds for k, v in m.items()}
    # ratios are not additive over rounds
    for key in ("logging_fit.fit_epoch_s", "logging_fit.distinct_context_ratio"):
        per_round[key] = m[key]
    return per_round
