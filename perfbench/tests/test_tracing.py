import pytest

import tracing
from tracing import Span, Tracer
from uips import cli, core, estimators, learning, logging_fit, synthetic


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("bench.unit", None, 0, 0.0, 10.0),
        Span("a.f", 0, 0, 1.0, 4.0),
        Span("a.g", 1, 0, 2.0, 3.0),  # grandchild: charged to a.f, not to the root
        Span("b.h", 0, 0, 5.0, 9.0),
        Span("b.k", 3, 0, 5.0, 7.0),
        Span("b.k", 3, 0, 6.0, 8.0),  # overlaps its sibling; the union is 5..8
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0])


def test_layer_metrics_aggregate_per_round():
    spans = [
        Span("bench.unit", None, 0, 0.0, 10.0),
        Span("logging_fit.fit_logging_policy", 0, 0, 0.0, 6.0, {"rows": 100, "distinct": 10, "epochs": 3, "cells": 1500}),
        Span("bench.unit", None, 2, 10.0, 20.0),
        Span("logging_fit.fit_logging_policy", 2, 2, 10.0, 14.0, {"rows": 100, "distinct": 30, "epochs": 3, "cells": 1500}),
    ]
    m = tracing.layer_metrics(spans, rounds=2)
    assert m["logging_fit.fit_s"] == pytest.approx(5.0)
    assert m["logging_fit.fit_calls"] == 1
    assert m["logging_fit.fit_epoch_s"] == pytest.approx(10.0 / 6)
    assert m["logging_fit.distinct_context_ratio"] == pytest.approx(0.2)
    assert m["trace.unattributed_s"] == pytest.approx(5.0)


def test_wrappers_are_removed_after_a_traced_run():
    before = {mod.__name__: dict(vars(mod)) for mod in (cli, core, estimators, learning, logging_fit, synthetic)}
    methods = {name: core.SoftmaxLinearPolicy.__dict__[name] for name in ("distribution_matrix", "save")}
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="inside"):
        with tracing.installed(tracer):
            assert tracing.leftover_wrappers()
            assert getattr(learning.fit_logging_policy, tracing.TRACED_MARK)
            synthetic.build_env(synthetic.EnvConfig(dim=4, action_count=5, train_size=10,
                                                          validation_size=4, test_size=4, seed=1))
            raise RuntimeError("inside")
    assert tracing.leftover_wrappers() == []
    after = {mod.__name__: dict(vars(mod)) for mod in (cli, core, estimators, learning, logging_fit, synthetic)}
    assert all(after[name][k] is v for name, attrs in before.items() for k, v in attrs.items())
    assert all(core.SoftmaxLinearPolicy.__dict__[n] is raw for n, raw in methods.items())
    assert [s.name for s in tracer.spans] == ["synthetic.build_env"]


def test_logging_model_calls_are_told_apart_from_target_policy_calls():
    env = synthetic.build_env(synthetic.EnvConfig(dim=4, action_count=5, train_size=10,
                                                  validation_size=4, test_size=4, seed=1))
    data = synthetic.generate_log(env, 50, core.make_rng(0))
    tracer = Tracer()
    with tracing.installed(tracer):
        model = logging_fit.fit_logging_policy(data, logging_fit.LoggingFitConfig(epochs=2))
        model.beta_matrix(data.xs)
        env.logging_policy.distribution_matrix(data.xs)
    calls = [s for s in tracer.spans if s.name == "core.SoftmaxLinearPolicy.distribution_matrix"]
    assert [bool(s.attrs and s.attrs.get("logging")) for s in calls] == [True, False]
    fit = next(s for s in tracer.spans if s.name == "logging_fit.fit_logging_policy")
    assert fit.attrs == {"rows": 50, "distinct": len({tuple(x) for x in data.xs}), "epochs": 2, "cells": 50 * 5 * 2}
