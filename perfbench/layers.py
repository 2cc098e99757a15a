"""Where the traced run wraps the package, and the per-layer metrics.

Each public function is patched into the namespace of the module that
calls it (``harness.fit_surrogates``, ``zero_inflated.fit_regressor``,
``acquisition.draw_joint``, ``testbeds.simulate_batch``, ...), and also
into the module that defines it when the benchmark calls it directly.
The layers are the package's modules.  "Computed" counters are derived
from array shapes in untimed hooks, not measured.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from orderedbo import acquisition, gp, harness, testbeds, zero_inflated

_SIM_STEP = inspect.signature(testbeds.simulate_batch).parameters["h"].default

def useful_front_rows(front: np.ndarray) -> int:
    """Rows of (S, N, K) clipped fronts that can bound a candidate's box.

    A row counts when every coordinate is positive, no other row of the
    same sample dominates it, and it does not repeat an earlier row.
    """
    n = front.shape[1]
    if n == 0:
        return 0
    if front.shape[2] == 2:
        # sorted by x, then y, descending: a row is useful when positive
        # and above every y seen before it
        order = np.lexsort((-front[:, :, 1], -front[:, :, 0]), axis=-1)
        ys = np.take_along_axis(front[:, :, 1], order, axis=1)
        xs = np.take_along_axis(front[:, :, 0], order, axis=1)
        seen = np.maximum.accumulate(ys, axis=1)
        above = ys > np.concatenate(
            [np.full((ys.shape[0], 1), -np.inf), seen[:, :-1]], axis=1)
        return int(np.count_nonzero(above & (xs > 0.0) & (ys > 0.0)))
    ge = np.all(front[:, :, None, :] >= front[:, None, :, :], axis=3)
    gt = np.any(front[:, :, None, :] > front[:, None, :, :], axis=3)
    dominated = np.any(ge & gt, axis=1)
    earlier = np.triu(np.ones((n, n), dtype=bool), 1)
    repeated = np.any(ge & ~gt & earlier, axis=1)
    positive = np.all(front > 0.0, axis=2)
    return int(np.count_nonzero(positive & ~dominated & ~repeated))


def install(tracer) -> None:
    """Patch every traced boundary; undo with ``tracer.restore()``."""

    def campaign_done(args, kwargs, record):
        tracer.count("harness.cells", len(record.iterations))
        tracer.count("harness.fit_fallbacks",
                      sum(r.fit_failed for r in record.iterations))

    def evaluated(args, kwargs, observations):
        if tracer.current() == "harness":
            tracer.count("harness.evaluate_calls")
            tracer.count("harness.evaluate_rows", len(observations))

    def simulated(args, kwargs, out):
        tracer.count("testbeds.simulate.rows", out.shape[0])
        h = kwargs.get("h", args[1] if len(args) > 1 else _SIM_STEP)
        tracer.count("testbeds.simulate.steps",
                     math.ceil(float(np.max(out[:, 1])) / h))

    def surrogates_fitted(args, kwargs, surrogate):
        tracer.count("zero_inflated.fit_surrogates.prior_fallbacks",
                     sum(surrogate.prior_fallback))

    def regressor_fitted(args, kwargs, model):
        tracer.count("gp.fit_regressor.rows", model.n_train)

    def classifier_fitted(args, kwargs, model):
        tracer.count("gp.newton_iters", model.newton_iterations)
        tracer.count("gp.classifier_degenerate", int(model.is_degenerate))

    def lml_failed(exc):
        if isinstance(exc, gp.IllConditionedKernelError):
            tracer.count("gp.lml_failures")

    def drawn(args, kwargs, draw):
        tracer.count("zero_inflated.draw_joint.values", draw.beta.size)

    def gated(args, kwargs, gamma):
        tracer.count("dag.zeros", np.count_nonzero(gamma == 0.0))
        tracer.count("dag.coords", gamma.size)

    def scored(args, kwargs, result):
        ctx, gamma = args[0], args[1]
        front = args[2] if len(args) > 2 else kwargs.get("baseline_clipped")
        if front is None:
            front = ctx.baseline_clipped
        s, p = gamma.shape[:2]
        cells = s * p * front.shape[1]
        tracer.count("acquisition.hvi.cells", cells)
        tracer.peak("acquisition.hvi.temp_mib", 8.0 * cells / 2 ** 20)
        tracer.count("acquisition.front_rows", front.shape[0] * front.shape[1])
        tracer.count("acquisition.front_useful", useful_front_rows(front))

    tracer.patch(harness, "run_campaign", "harness", after=campaign_done)
    tracer.patch(harness, "export_results", "harness")
    for attr in ("evaluate_batch", "evaluate_noiseless_batch"):
        tracer.patch(testbeds.Testbed, attr, "testbeds.evaluate",
                     after=evaluated)
    tracer.patch(testbeds, "simulate_batch", "testbeds.simulate",
                 after=simulated)
    for owner in (harness, zero_inflated):
        tracer.patch(owner, "fit_surrogates", "zero_inflated.fit_surrogates",
                     after=surrogates_fitted)
    tracer.patch(zero_inflated, "fit_regressor", "gp.fit_regressor",
                 after=regressor_fitted)
    tracer.patch(zero_inflated, "fit_classifier", "gp.fit_classifier",
                 after=classifier_fitted)
    tracer.patch(gp, "lml_and_grad", "gp.lml", on_error=lml_failed)
    tracer.patch(acquisition, "draw_joint", "zero_inflated.draw_joint",
                 after=drawn)
    tracer.patch(acquisition, "resample", "dag.resample", after=gated)
    for owner in (harness, acquisition):
        tracer.patch(owner, "prepare_context", "acquisition.prepare_context")
        tracer.patch(owner, "select_batch", "acquisition.select_batch")
    tracer.patch(acquisition, "qnehvi_of_samples", "acquisition.hvi",
                 after=scored)


def metrics(tracer, jobs: int) -> dict:
    """Every per-layer metric; counts and times are per job."""
    times = tracer.layer_times()
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    def span(name, field):
        return times[name][field] if name in times else 0.0

    sim_busy = span("testbeds.simulate", "busy_s")
    per_job = {
        "harness.self_s": span("harness", "self_s"),
        "harness.cells": c["harness.cells"],
        "harness.fit_fallbacks": c["harness.fit_fallbacks"],
        "harness.evaluate_calls": c["harness.evaluate_calls"],
        "harness.evaluate_rows": c["harness.evaluate_rows"],
        "testbeds.simulate.calls": span("testbeds.simulate", "calls"),
        "testbeds.simulate.rows": c["testbeds.simulate.rows"],
        "testbeds.simulate.busy_s": sim_busy,
        "testbeds.simulate.steps": c["testbeds.simulate.steps"],
        "testbeds.evaluate.self_s": span("testbeds.evaluate", "self_s"),
        "gp.fit_regressor.calls": span("gp.fit_regressor", "calls"),
        "gp.fit_regressor.busy_s": span("gp.fit_regressor", "busy_s"),
        "gp.fit_regressor.rows": c["gp.fit_regressor.rows"],
        "gp.lml_evals": span("gp.lml", "calls"),
        "gp.lml_failures": c["gp.lml_failures"],
        "gp.fit_classifier.calls": span("gp.fit_classifier", "calls"),
        "gp.fit_classifier.busy_s": span("gp.fit_classifier", "busy_s"),
        "gp.newton_iters": c["gp.newton_iters"],
        "gp.classifier_degenerate": c["gp.classifier_degenerate"],
        "zero_inflated.fit_surrogates.self_s":
            span("zero_inflated.fit_surrogates", "self_s"),
        "zero_inflated.fit_surrogates.prior_fallbacks":
            c["zero_inflated.fit_surrogates.prior_fallbacks"],
        "zero_inflated.draw_joint.calls":
            span("zero_inflated.draw_joint", "calls"),
        "zero_inflated.draw_joint.busy_s":
            span("zero_inflated.draw_joint", "busy_s"),
        "zero_inflated.draw_joint.values":
            c["zero_inflated.draw_joint.values"],
        "dag.resample.calls": span("dag.resample", "calls"),
        "dag.resample.busy_s": span("dag.resample", "busy_s"),
        "acquisition.prepare_context.self_s":
            span("acquisition.prepare_context", "self_s"),
        "acquisition.select_batch.self_s":
            span("acquisition.select_batch", "self_s"),
        "acquisition.hvi.calls": span("acquisition.hvi", "calls"),
        "acquisition.hvi.busy_s": span("acquisition.hvi", "busy_s"),
        "acquisition.hvi.cells": c["acquisition.hvi.cells"],
    }
    out = {name: value / jobs for name, value in per_job.items()}
    out["testbeds.simulate.s_per_step"] = ratio(
        sim_busy, c["testbeds.simulate.steps"])
    out["dag.gated_share"] = ratio(c["dag.zeros"], c["dag.coords"])
    out["acquisition.hvi.temp_mib"] = tracer.maxima["acquisition.hvi.temp_mib"]
    out["acquisition.front_useful_share"] = ratio(
        c["acquisition.front_useful"], c["acquisition.front_rows"])
    return out
