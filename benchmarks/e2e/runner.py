"""One pass of one workload in this interpreter.

``run_pass(..., traced=False)`` measures the end-to-end metrics with
nothing wrapped; ``traced=True`` wraps the layer boundaries
(:mod:`benchmarks.e2e.spans`), runs half the ops, re-runs a quarter
untraced as the reference the tracing overhead is taken against, then
runs the layer probes (:mod:`benchmarks.e2e.layers`).

The op count is fixed from ``--seconds`` by each workload's sizing
constant, not by a stopwatch: two runs of one seed then execute the
same ops, so counts, digests and simulated results compare exactly.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from benchmarks.e2e import ROOT, STARTED, inputs, layers, spec
from benchmarks.e2e.hostspeed import calibrate, host_scale
from benchmarks.e2e.spans import SpanRecorder, instrument
from benchmarks.e2e.stats import median_and_tail
from benchmarks.e2e.workloads import WORKLOADS, OpResult, Workload

#: When the heavy imports above finished, on the clock ``STARTED`` uses.
IMPORTED = time.perf_counter()

#: Scratch space: inside the checkout, ignored by git, emptied on exit.
WORK_ROOT = ROOT / ".bench_work"

MIN_OPS = 4
#: Set-up is repeated (and its median reported) up to this many times,
#: or until it has taken this long in total.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 2.5


@dataclass
class PassResult:
    """Everything one pass measured."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    attempted: int
    failures: List[str]
    #: name -> value, every metric the contract asks of this pass.
    metrics: Dict[str, float]
    #: What the report prints besides the metrics: input digest, sample
    #: count, tail percentile, deterministic facts.
    detail: Dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        """Failed ops, counted against the ops attempted."""
        return min(len(self.failures), self.attempted)

    def contract(self) -> Dict:
        """The object the contract wants as the last line of stdout."""
        declared = spec.per_layer() if self.traced else spec.end_to_end()
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics.get(name, 0.0),
                       "unit": declared[name]["unit"]}
                for name in declared
            },
        }

    def to_json(self) -> Dict:
        """The pass as the full report stores it."""
        return {
            "workload": self.workload, "seed": self.seed,
            "seconds": self.seconds, "traced": self.traced,
            "attempted": self.attempted, "failed": self.failed,
            "failures": self.failures[:20],
            "metrics": self.metrics, "detail": self.detail,
        }


def op_count(workload: type, seconds: float) -> int:
    """Timed ops for a run of ``seconds`` (see module docstring)."""
    return max(MIN_OPS, round(seconds * workload.ops_per_second))


@contextmanager
def isolated_state() -> Iterator[Path]:
    """A per-run work dir that holds every cache and store.

    ``XDG_CACHE_HOME``/``XDG_STATE_HOME`` point into it for the
    duration, so a default path taken anywhere in the program cannot
    reach ``~/.cache/repro-*``; the process-wide caches are reset to
    their memory-only defaults afterwards.
    """
    from repro.core.analysis.cache import configure_analysis_cache
    from repro.core.dse.cache import configure

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    saved = {key: os.environ.get(key)
             for key in ("XDG_CACHE_HOME", "XDG_STATE_HOME")}
    os.environ["XDG_CACHE_HOME"] = str(workdir / "xdg-cache")
    os.environ["XDG_STATE_HOME"] = str(workdir / "xdg-state")
    try:
        yield workdir
    finally:
        configure(cache_dir=None)
        configure_analysis_cache(None)
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it


@dataclass
class Driven:
    """Timed ops of one workload instance."""

    #: Op times at reference host speed (what the metrics use).
    seconds: List[float] = field(default_factory=list)
    #: The same intervals as the clock read them.
    raw_seconds: List[float] = field(default_factory=list)
    #: ``host_scale`` of each timed op, by op index.
    scale_by_op: Dict[int, float] = field(default_factory=dict)
    results: List[OpResult] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0

    def host_speed(self) -> float:
        """Median host speed over the ops, 1.0 being the reference."""
        scales = list(self.scale_by_op.values())
        return statistics.median(scales) if scales else 0.0


def drive(workload: Workload, indices: Sequence[int],
          recorder: Optional[SpanRecorder] = None,
          corrupt=None) -> Driven:
    """Run ops ``indices`` one after the other, each timed and checked.

    The heap is collected before each op so one op's garbage is not
    billed to the next; collection stays enabled inside the op.
    ``corrupt(index, outcome)`` lets the self-tests damage an output.
    """
    driven = Driven()
    for index in indices:
        driven.attempted += 1
        try:
            staged = workload.stage(index)
            gc.collect()
            before = calibrate()
            if recorder is not None:
                recorder.op = index
                root = recorder.span("bench.op")
            else:
                root = nullcontext()
            with root:
                start = time.perf_counter()
                outcome = workload.run_op(staged)
                elapsed = time.perf_counter() - start
            scale = host_scale(before, calibrate())
            if corrupt is not None:
                outcome = corrupt(index, outcome)
            result = workload.check_op(staged, outcome)
        except Exception as exc:  # an op that raises is a failed op
            driven.failures.append(
                f"op {index}: {type(exc).__name__}: {exc}")
            continue
        driven.seconds.append(elapsed * scale)
        driven.raw_seconds.append(elapsed)
        driven.scale_by_op[index] = scale
        driven.results.append(result)
        driven.failures.extend(result.failures)
    return driven


def fold_facts(results: Sequence[OpResult]) -> Dict[str, float]:
    """Deterministic facts of a run: sums, and the knee geomean."""
    facts: Dict[str, float] = {}
    knees = []
    for result in results:
        for key, value in result.facts.items():
            if key == "knee_latency_s":
                knees.append(value)
            else:
                facts[key] = facts.get(key, 0) + value
    if knees:
        facts["front_knee_latency_us"] = 1e6 * math.exp(
            sum(math.log(value) for value in knees) / len(knees))
    facts["work"] = sum(result.work for result in results)
    return facts


def round_rates(driven: Driven, round_ops: int
                ) -> Tuple[List[float], List[float]]:
    """Ops and work units per second of each complete round.

    A round is one cycle of the workload's op profile, so every round
    holds the same mix of ops; the run reports the median round, which
    a burst of host interference during one round does not move. A
    run shorter than one round is a single round.
    """
    ops_rates, work_rates = [], []
    for start in range(0, len(driven.seconds), round_ops):
        seconds = driven.seconds[start:start + round_ops]
        if len(seconds) < round_ops and ops_rates:
            break  # a trailing partial round has another mix
        window = sum(seconds)
        work = sum(result.work for result in
                   driven.results[start:start + round_ops])
        ops_rates.append(len(seconds) / window)
        work_rates.append(work / window)
    return ops_rates, work_rates


def peak_rss_mb() -> float:
    """High-water resident set of this interpreter, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(workload: Workload, corrupt=None
                ) -> Tuple[Dict[str, float], Dict, Driven]:
    import_s = IMPORTED - STARTED
    import_scale = host_scale(*(calibrate() for _ in range(3)))
    prepare_raw, prepare_s = [], []
    while len(prepare_raw) < SETUP_REPEATS and (
        not prepare_raw or sum(prepare_raw) < SETUP_BUDGET_S
    ):
        gc.collect()
        # a long set-up samples the host speed as it goes (``tick``);
        # the loops it runs are taken back out of the interval
        samples = [calibrate()]
        start = time.perf_counter()
        workload.prepare(lambda: samples.append(calibrate()))
        elapsed = time.perf_counter() - start - sum(samples[1:])
        samples.append(calibrate())
        prepare_raw.append(elapsed)
        prepare_s.append(elapsed * host_scale(*samples))
    setup_s = import_s * import_scale + statistics.median(prepare_s)

    drive(workload, [0])  # warm-up, untimed
    driven = drive(workload, range(1, workload.ops + 1), corrupt=corrupt)
    rss = peak_rss_mb()
    driven.failures.extend(workload.finish())

    facts = fold_facts(driven.results)
    metrics: Dict[str, float] = {"setup_s": setup_s,
                                 "peak_rss_mb": rss}
    detail = {"samples": len(driven.seconds),
              "input_ops": workload.ops,
              "work_unit": workload.work_unit,
              "setup_repeats": len(prepare_raw),
              "deterministic": facts}
    if driven.seconds:
        median, tail, pct = median_and_tail(driven.seconds)
        ops_rates, work_rates = round_rates(driven, workload.round_ops)
        metrics.update({
            "ops_per_s": statistics.median(ops_rates),
            "op_p50_ms": 1e3 * median,
            "op_tail_ms": 1e3 * tail,
            "work_per_s": statistics.median(work_rates),
        })
        raw_median, raw_tail, _pct = median_and_tail(driven.raw_seconds)
        detail.update({
            "tail_pct": pct, "rounds": len(ops_rates),
            "host_speed": driven.host_speed(),
            "raw": {
                "setup_s": import_s + statistics.median(prepare_raw),
                "op_p50_ms": 1e3 * raw_median,
                "op_tail_ms": 1e3 * raw_tail,
                "window_s": sum(driven.raw_seconds),
            },
        })
    return metrics, detail, driven


def _traced(workload_type: type, seed: int, ops: int,
            workdir: Path) -> Tuple[Dict[str, float], Dict, Driven]:
    traced_ops = max(2, ops // 2)
    reference_ops = max(1, ops // 4)

    workload = workload_type(seed, traced_ops, workdir / "traced")
    workload.prepare()
    drive(workload, [0])
    recorder = SpanRecorder()
    with instrument(recorder, notes=layers.NOTES):
        driven = drive(workload, range(1, traced_ops + 1), recorder)
    driven.failures.extend(workload.finish())

    reference = workload_type(seed, reference_ops,
                              workdir / "reference")
    reference.prepare()
    drive(reference, [0])
    untraced = drive(reference, range(1, reference_ops + 1))
    driven.failures.extend(untraced.failures)

    facts = fold_facts(driven.results)
    metrics = layers.fold(recorder, driven, untraced, facts)
    probed, skipped = layers.probe(workload, workdir / "probes")
    metrics.update(probed)
    metrics["front_knee_latency_us"] = facts.get(
        "front_knee_latency_us", 0.0)
    metrics["sim_makespan_s"] = facts.get("sim_makespan_s", 0.0)
    detail = {"samples": len(driven.seconds),
              "reference_samples": len(untraced.seconds),
              "host_speed": driven.host_speed(),
              "spans": len(recorder.spans),
              "layer_self_s": recorder.layer_self_seconds(),
              "skipped_probes": skipped,
              "input_ops": traced_ops,
              "deterministic": facts}
    return metrics, detail, driven


def run_pass(name: str, seed: int, seconds: float, traced: bool,
             corrupt=None) -> PassResult:
    """Measure one workload once, in this interpreter."""
    workload_type = WORKLOADS[name]
    ops = op_count(workload_type, seconds)
    with isolated_state() as workdir:
        if traced:
            metrics, detail, driven = _traced(
                workload_type, seed, ops, workdir)
        else:
            workload = workload_type(seed, ops, workdir / "untraced")
            metrics, detail, driven = _end_to_end(workload, corrupt)
    detail["input_digest"] = inputs.digest_of(
        workload_type.descriptors(seed, detail["input_ops"]))
    return PassResult(
        workload=name, seed=seed, seconds=seconds, traced=traced,
        attempted=driven.attempted, failures=driven.failures,
        metrics=metrics, detail=detail,
    )


def render(result: PassResult) -> str:
    """Every metric of a pass by name, with its unit, for humans."""
    declared = (spec.per_layer() if result.traced
                else spec.end_to_end())
    detail = result.detail
    lines = [
        f"workload {result.workload}  seed {result.seed}  "
        f"{'traced' if result.traced else 'untraced'} pass  "
        f"input digest {detail.get('input_digest')}",
        f"  ops attempted {result.attempted}  failed {result.failed}  "
        f"timed samples {detail.get('samples')}",
    ]
    for name, entry in declared.items():
        value = result.metrics.get(name, 0.0)
        extra = ""
        if name == "op_tail_ms":
            extra = (f"  (p{detail.get('tail_pct')} of "
                     f"{detail.get('samples')} samples)")
        elif name == "op_p50_ms":
            extra = f"  (median of {detail.get('samples')} samples)"
        elif name == "work_per_s":
            extra = f"  ({detail.get('work_unit')})"
        if value == 0.0 and result.traced:
            continue  # a layer this workload does not enter
        lines.append(f"  {name:44s} {value:14.6g} {entry['unit']}{extra}")
    if "host_speed" in detail:
        lines.append(
            f"  host speed while timing: {detail['host_speed']:.2f} of "
            f"the reference" + (
                f"; as the clock read it: median op "
                f"{detail['raw']['op_p50_ms']:.4g} ms, tail "
                f"{detail['raw']['op_tail_ms']:.4g} ms, set-up "
                f"{detail['raw']['setup_s']:.4g} s"
                if "raw" in detail else ""))
    for key, value in sorted(detail.get("deterministic", {}).items()):
        lines.append(f"  = {key:42s} {value:14.10g}")
    for skipped in detail.get("skipped_probes", ()):
        lines.append(f"  PROBE SKIPPED (reads 0): {skipped}")
    for failure in result.failures[:10]:
        lines.append(f"  FAILED CHECK: {failure}")
    return "\n".join(lines)


def detail_line(result: PassResult) -> str:
    """Machine-readable copy of a pass, for the parent ``run``."""
    return "detail " + json.dumps(result.to_json(), sort_keys=True)
