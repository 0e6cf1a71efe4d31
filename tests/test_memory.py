"""Peak memory of the log drawing, the logging fit, the propensity tables and training.

Each bound is in units of one float64 buffer of n * action_count cells, the
size of a dense (row, action) table of the log. tracemalloc sees numpy's
array buffers, so a peak is what a stage allocates beyond its inputs. The
log has 20,000 rows over 50 distinct contexts: the stages compute on those
contexts, and only the fit keeps one dense (n, action_count) buffer, its
loss derivative. Training, with its per-epoch trace and true-gradient norm,
reads (distinct context, action) tables only.
"""

import tracemalloc

import pytest

from uips.core import make_rng
from uips.estimators import Weighting, propensity_tables
from uips.learning import TrainConfig, train
from uips.logging_fit import LoggingFitConfig, fit_logging_policy
from uips.synthetic import EnvConfig, build_env, generate_log

N, ACTIONS, CONTEXTS = 20_000, 50, 50
UNIT = N * ACTIONS * 8


def _peak_units(fn):
    """``fn()`` and the peak of the memory it allocated, in units of one (n, action_count) buffer."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / UNIT


@pytest.fixture(scope="module")
def peaks():
    env = build_env(EnvConfig(dim=8, action_count=ACTIONS, train_size=CONTEXTS, validation_size=5, test_size=5))
    dataset, log_units = _peak_units(lambda: generate_log(env, N, make_rng(0)))
    model, fit_units = _peak_units(lambda: fit_logging_policy(dataset, LoggingFitConfig(epochs=2)))
    _, table_units = _peak_units(lambda: propensity_tables(dataset, model))
    config = TrainConfig(epochs=2, batch_size=2000, weighting=Weighting(kind="bips"))
    _, train_units = _peak_units(lambda: train(dataset, model, config))
    return {"generate_log": log_units, "fit": fit_units, "tables": table_units, "train": train_units}


@pytest.mark.parametrize("stage, bound", [
    ("fit", 2.5), ("generate_log", 1.5), ("tables", 0.75), ("train", 0.5),
])
def test_peak_memory_in_units_of_one_dense_buffer(peaks, stage, bound):
    assert peaks[stage] < bound
