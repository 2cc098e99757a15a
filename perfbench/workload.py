"""One workload in one process: set up, time the jobs, check the outputs.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and the BLAS thread
count pinned.  Prints one line, ``RESULT {json}``, with the moment set-up
ended on the monotonic clock (which ``run.py`` shares), the counts of
operations attempted and failed, the metrics and the output digest.

With ``--setup-only`` it stops after set-up.  With ``--trace 1`` it wraps
the package's public functions (see ``layers.py``) and reports the
per-layer metrics of the timed jobs instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np
import scipy

from orderedbo import acquisition, harness, testbeds, zero_inflated
from orderedbo.dag import build_dag

# Every input below comes from the acceptance criteria's master seed, not
# from --seed: at the sizes that fit into one run, wall time and joint
# positives depend on the design far more than any useful bound.  Two
# 1-trial penicillin campaigns took 22.8 s and 29.3 s and found 0 and 2
# joint positives; five 1024-row sweeps found 46 to 67.  Fixed inputs
# also give each workload one reference digest.
DESIGN_SEED = 20260814

# decide_s.tail is this nearest-rank percentile; pen-select makes at least
# MIN_DECISIONS decisions so that ten of them lie beyond it.
TAIL_PERCENTILE = 75
MIN_DECISIONS = 40

SELECT_N, SELECT_POOL, SELECT_Q, SELECT_S = 48, 80, 4, 512
SWEEP_ROWS = 1024
# a 2-second simulator call varies by about 5 % from call to call
SIM_REPEATS = 3

CAMPAIGNS = {
    "bc-campaign": dict(testbed="branin-currin", trials=3, iterations=20,
                        init_size=6, pool_size=40, batch_size=4,
                        mc_samples=512),
    "pen-campaign": dict(testbed="penicillin", trials=1, iterations=2,
                         init_size=8, pool_size=80, batch_size=4,
                         mc_samples=512),
}

# spawn-key tags of the benchmark's own design streams
_TAG_TRAIN, _TAG_POOL, _TAG_SWEEP, _TAG_WARMUP = 101, 102, 103, 104


class Checks:
    """Operations attempted and failed, and invariant violations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []

    def violate(self, message: str) -> None:
        if len(self.violations) < 20:
            self.violations.append(message)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(DESIGN_SEED, spawn_key=key))


def _uniform(testbed, rng, n: int) -> np.ndarray:
    lo, hi = testbed.bounds_lo, testbed.bounds_hi
    return lo + (hi - lo) * rng.random((n, testbed.n_dims))


def _nearest_rank(values, percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(percentile / 100 * len(ordered)) - 1, 0)]


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _downward_closed(measured, dag) -> bool:
    return all(not measured[k] or all(measured[a] for a in dag.predecessors[k])
               for k in range(dag.n_objectives))


def _observation_bytes(observations) -> bytes:
    return b"".join(o.values.tobytes() + o.measured.tobytes()
                    for o in observations)


class CampaignWorkload:
    """``run_campaign`` + ``export_results`` on a fixed config (one job)."""

    clock = staticmethod(time.perf_counter)
    min_jobs = 1

    def __init__(self, name: str, workdir: str):
        self.config = harness.CampaignConfig(
            master_seed=DESIGN_SEED, output_dir=os.path.join(workdir, name),
            **CAMPAIGNS[name])
        self.testbed = testbeds.get_testbed(self.config.testbed)
        self.job_s: list[float] = []
        self.cell_s: list[float] = []
        self.digest = None
        self.record = None
        # warm-up: a one-cell campaign fits and selects once, untimed
        warm = harness.CampaignConfig(
            testbed="branin-currin", trials=1, iterations=1, init_size=6,
            pool_size=40, mc_samples=64, modes=("qnehvi-dag",),
            output_dir=os.path.join(workdir, "warmup"))
        harness.export_results(harness.run_campaign(warm))

    def job(self, checks: Checks) -> None:
        cfg = self.config
        cells = cfg.trials * cfg.iterations * len(cfg.modes)
        checks.attempted += cells
        start = self.clock()
        try:
            record = harness.run_campaign(cfg)
            paths = harness.export_results(record)
        except Exception as exc:  # a cell raised: the campaign is lost
            checks.failed += cells
            checks.violate(f"campaign raised {exc!r}")
            return
        self.job_s.append(self.clock() - start)
        with open(paths[0], "rb") as fh:
            iterations_csv = fh.read()
        with open(paths[1], "rb") as fh:
            selections_csv = fh.read()
        digest = _sha(iterations_csv, selections_csv)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            checks.violate("a repeated campaign wrote different CSVs")
        self.record = record

        last = {}
        for row in record.iterations:
            picks = row.selected_indices
            bad = (len(set(picks)) != len(picks)
                   or not all(0 <= i < cfg.pool_size for i in picks)
                   or row.cum_joint_positives < last.get((row.mode, row.trial),
                                                         0))
            last[(row.mode, row.trial)] = row.cum_joint_positives
            if bad:
                checks.violate(
                    f"{row.mode} trial {row.trial} iteration {row.iteration}: "
                    f"picks {picks}, cumulative {row.cum_joint_positives}")
            checks.failed += int(bad or row.fit_failed)
            if row.mode != "random":
                self.cell_s.append(row.wall_time_s)

    def finish(self, checks: Checks) -> dict:
        record, cfg = self.record, self.config
        final = [r.cum_joint_positives for r in record.rows("qnehvi-dag")
                 if r.iteration == cfg.iterations]
        # Re-evaluate every noisy query of the campaign in one call: the
        # result must repeat the campaign's observations bit for bit.
        queried = [o for trial in range(cfg.trials)
                   for o in record.init_observations[trial]]
        queried += [o for r in record.iterations for o in r.observations]
        X = np.stack([o.x for o in queried])
        seeds = [o.noise_seed for o in queried]
        rates = []
        deadline = time.perf_counter() + 1.0
        while len(rates) < SIM_REPEATS or time.perf_counter() < deadline:
            start = time.perf_counter()
            again = self.testbed.evaluate_batch(X, seeds)
            rates.append(len(queried) / (time.perf_counter() - start))
        if _observation_bytes(again) != _observation_bytes(queried):
            checks.violate("re-evaluated queries differ from the campaign")
        return {
            "campaign_s": statistics.median(self.job_s),
            "decide_s.p50": statistics.median(self.cell_s),
            "decide_s.tail": _nearest_rank(self.cell_s, TAIL_PERCENTILE),
            "sim_rows_per_s": statistics.median(rates),
            "dag_joint_positives": statistics.fmean(final),
        }


class SelectWorkload:
    """One decision: fit_surrogates -> prepare_context -> select_batch."""

    clock = staticmethod(time.perf_counter)
    min_jobs = MIN_DECISIONS

    def __init__(self, name: str, workdir: str):
        self.testbed = testbeds.get_testbed("penicillin")
        tb = self.testbed
        self.dags = (build_dag(tb.n_objectives, tb.dag_edges),
                     build_dag(tb.n_objectives, []))
        rng = _rng(_TAG_TRAIN)
        X = _uniform(tb, rng, SELECT_N)
        seeds = rng.integers(0, 2 ** 32, SELECT_N)
        self.train = harness.observations_to_set(
            tb.evaluate_batch(X, seeds), tb.bounds_lo, tb.bounds_hi)
        self.config = zero_inflated.SurrogateConfig(kinds=tb.kinds)
        self.r_ref = np.zeros(tb.n_objectives)
        self.decide_s: list[float] = []
        self.picks: list[list[int]] = []
        self.dag_picks: list[np.ndarray] = []
        self._decide(-1, _TAG_WARMUP)   # warm-up, untimed

    def _decide(self, i: int, tag: int = _TAG_POOL):
        tb = self.testbed
        pool = _uniform(tb, _rng(tag, i + 1), SELECT_POOL)
        pool_unit = (pool - tb.bounds_lo) / (tb.bounds_hi - tb.bounds_lo)
        dag = self.dags[i % 2]
        mc_seed = np.random.SeedSequence(DESIGN_SEED, spawn_key=(tag, i + 1))
        start = self.clock()
        surrogate = zero_inflated.fit_surrogates(self.train, dag, self.config)
        ctx = acquisition.prepare_context(surrogate, dag, self.train.X,
                                          self.r_ref, SELECT_S, mc_seed)
        picks, gains = acquisition.select_batch(ctx, pool_unit, SELECT_Q,
                                                return_gains=True)
        return self.clock() - start, pool, picks, gains

    def job(self, checks: Checks) -> None:
        i = len(self.decide_s)
        checks.attempted += 1
        try:
            elapsed, pool, picks, gains = self._decide(i)
        except Exception as exc:
            checks.failed += 1
            checks.violate(f"decision {i} raised {exc!r}")
            self.decide_s.append(float("nan"))
            return
        self.decide_s.append(elapsed)
        g = np.asarray(gains)
        bad = (len(set(picks)) != len(picks)
               or not np.all(np.isfinite(g)) or np.any(g < 0.0)
               or np.any(np.diff(g) > 0.0))
        if bad:
            checks.failed += 1
            checks.violate(f"decision {i}: picks {picks} gains {gains}")
        if i < MIN_DECISIONS:
            self.picks.append([int(p) for p in picks])
            if i % 2 == 0:
                self.dag_picks.append(pool[picks])

    @property
    def digest(self) -> str:
        return _sha(json.dumps(self.picks).encode())

    def finish(self, checks: Checks) -> dict:
        # Noiseless truth of the DAG arm's picks, outside the timed part.
        X = np.concatenate(self.dag_picks)
        rates, outputs = [], set()
        for _ in range(SIM_REPEATS):
            start = time.perf_counter()
            truth = self.testbed.evaluate_noiseless_batch(X)
            rates.append(len(X) / (time.perf_counter() - start))
            outputs.add(_observation_bytes(truth))
        if len(outputs) > 1:
            checks.violate("repeated evaluations of the picks differ")
        times = [t for t in self.decide_s if not math.isnan(t)]
        return {
            "campaign_s": math.fsum(times[:MIN_DECISIONS]),
            "decide_s.p50": statistics.median(times),
            "decide_s.tail": _nearest_rank(times, TAIL_PERCENTILE),
            "sim_rows_per_s": statistics.median(rates),
            "dag_joint_positives": float(harness.joint_positive_count(
                truth, self.testbed.thresholds, self.dags[0])),
        }


class SweepWorkload:
    """One ``Testbed.evaluate_batch`` over the fixed uniform design."""

    clock = staticmethod(time.perf_counter)
    min_jobs = 1

    def __init__(self, name: str, workdir: str):
        self.testbed = testbeds.get_testbed("penicillin")
        self.dag = build_dag(self.testbed.n_objectives,
                             self.testbed.dag_edges)
        rng = _rng(_TAG_SWEEP)
        self.X = _uniform(self.testbed, rng, SWEEP_ROWS)
        self.noise_seeds = rng.integers(0, 2 ** 32, SWEEP_ROWS)
        self.sweep_s: list[float] = []
        self.digest = None
        self.observations = None

    def job(self, checks: Checks) -> None:
        checks.attempted += SWEEP_ROWS
        start = self.clock()
        try:
            observations = self.testbed.evaluate_batch(self.X,
                                                       self.noise_seeds)
        except Exception as exc:
            checks.failed += SWEEP_ROWS
            checks.violate(f"sweep raised {exc!r}")
            return
        self.sweep_s.append(self.clock() - start)
        for i, obs in enumerate(observations):
            if not (np.all(np.isfinite(obs.values))
                    and _downward_closed(obs.measured, self.dag)):
                checks.failed += 1
                checks.violate(f"sweep row {i}: {obs.values} {obs.measured}")
        digest = _sha(_observation_bytes(observations))
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            checks.violate("a repeated sweep returned different values")
        self.observations = observations

    def finish(self, checks: Checks) -> dict:
        sweep = statistics.median(self.sweep_s)
        return {
            "campaign_s": sweep,
            "decide_s.p50": sweep,
            "decide_s.tail": _nearest_rank(self.sweep_s, TAIL_PERCENTILE),
            "sim_rows_per_s": SWEEP_ROWS / sweep,
            "dag_joint_positives": float(harness.joint_positive_count(
                self.observations, self.testbed.thresholds, self.dag)),
        }


WORKLOADS = {
    "bc-campaign": CampaignWorkload,
    "pen-campaign": CampaignWorkload,
    "pen-select": SelectWorkload,
    "pen-sweep": SweepWorkload,
}


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cores": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(dir=args.workdir)
    try:
        workload = WORKLOADS[args.workload](args.workload, workdir)
        ready = time.monotonic()
        result = {"ready": ready}
        if not args.setup_only:
            result.update(_measure(workload, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = _environment()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def _measure(workload, args) -> dict:
    tracer = None
    if args.trace:
        from layers import install
        from tracer import Tracer
        tracer = Tracer()
        install(tracer)
        # traced job times leave out the tracer's untimed hooks
        workload.clock = tracer.clock
    checks = Checks()
    end = time.perf_counter() + args.seconds
    jobs = 0
    while True:
        job_start = time.perf_counter()
        workload.job(checks)
        jobs += 1
        now = time.perf_counter()
        # start another job only if it should end within the run time
        if jobs >= workload.min_jobs and now + (now - job_start) > end:
            break
    per_layer = None
    if tracer is not None:
        tracer.restore()
        from layers import metrics
        per_layer = metrics(tracer, jobs)
    end_to_end = workload.finish(checks)
    return {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "violations": checks.violations,
        "digest": workload.digest,
        "jobs": jobs,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


if __name__ == "__main__":
    sys.exit(main())
