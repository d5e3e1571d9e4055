"""End-to-end benchmark of the NightVision reproduction.

Run from the repository root:

    python3 e2ebench/run.py --workload nv-leak --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload with the program untouched (no
telemetry sink, no wrappers), checks every op against ground truth,
then re-runs the seed's first ops under a telemetry session to count
simulated work.  It prints every end-to-end metric.  ``--trace 1``
times those first ops untraced, re-runs them with layer spans and
telemetry, prints every per-layer metric, and writes the spans to
``e2ebench/out/``.  ``--write-manifest`` regenerates BENCHMARK.json.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``src/repro`` beside this
directory the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: the seed claims are developed against, and the held-out seed a
#: later claim is re-checked on
DEFAULT_SEED = 1
HELD_OUT_SEED = 20231

RUN_SECONDS = 25

#: setup is repeated this many times per run; setup_s is the median
SETUP_REPEATS = 3

#: what a fresh interpreter runs to time the imports setup_s includes,
#: scaled by host speed sampled in that interpreter around the imports
IMPORT_PROBE = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
import hostspeed
print(hostspeed.HostSpeed().timed(lambda: __import__("workloads")))
"""

#: counter prefixes that describe the engine, not the modelled machine;
#: the model-fact digest leaves them out
ENGINE_PREFIXES = ("cpu.decode.", "cpu.superblock.", "cpu.core.fastpath.")

MODEL_NOTE = ("The CPU model is unvalidated against hardware: accuracy is "
              "against victim ground truth, not silicon.")

#: (name, unit, better, bound).  Host speed on a shared 2-vCPU VM drifts
#: by 10-20% between 25-second windows, so every timing gets a 25% bound.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("op_tail_s", "s", "lower", 0.25),
    ("sim_ips", "insn/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("attack_accuracy", "ratio", "higher", 0.05),
)

_SPAN_LAYERS = (
    "core.extract_trace", "core.cfl_attack", "core.prime", "core.probe",
    "core.monitor", "sgx.step", "sgx.enclave_load", "system.run_slice",
    "memory.program_load", "cpu.run", "cpu.build_window",
    "cpu.build_superblock", "cpu.interp", "victims.ground_truth",
    "lang.compile", "symbolic.run_certify", "symbolic.certify_victim",
    "symbolic.explore", "symbolic.solve", "symbolic.eval_word",
    "symbolic.witness_replay", "symbolic.rewrite",
)
_COUNTERS = (
    "cpu.core.instructions", "cpu.interp.instructions",
    "cpu.decode.misses", "cpu.decode.window_builds",
    "cpu.superblock.builds", "cpu.superblock.hits",
    "cpu.superblock.invalidations", "cpu.superblock.bailouts",
    "cpu.btb.lookups", "cpu.btb.hits", "cpu.btb.allocations",
    "cpu.btb.deallocations", "cpu.btb.evictions", "cpu.core.false_hit",
    "cpu.core.squashes", "core.probe.attempts", "core.probe.readings",
)
#: (name, unit, better)
PER_LAYER = (
    tuple((f"{layer}.calls", "count", "lower") for layer in _SPAN_LAYERS)
    + tuple((f"{layer}.self_s", "s", "lower") for layer in _SPAN_LAYERS)
    + tuple((name, "count", "lower") for name in _COUNTERS)
    + (
        ("memory.code_gen_bumps.write", "count", "lower"),
        ("memory.code_gen_bumps.remap", "count", "lower"),
        ("core.probe.useful_ratio", "ratio", "higher"),
        ("core.probe.attempts_per_op", "count", "lower"),
        ("cpu.run.insns_per_call", "insn/call", "higher"),
        ("cpu.run.single_step_call_share", "ratio", "lower"),
        ("cpu.run.single_step_insn_share", "ratio", "lower"),
        ("cpu.fastpath.coverage", "ratio", "higher"),
        ("cpu.superblock.hit_ratio", "ratio", "higher"),
        ("cpu.decode.misses_per_kinsn", "1/kinsn", "lower"),
        ("op.unattributed_s", "s", "lower"),
        ("trace.span_coverage", "ratio", "higher"),
        ("trace.self_sum_error", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.ops_per_s_traced", "1/s", "higher"),
        ("trace.ops_per_s_untraced", "1/s", "higher"),
        ("trace.overhead", "ratio", "lower"),
    )
)


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
def manifest(workload_classes) -> dict:
    return {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": cls.why}
                      for name, cls in workload_classes.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def tail(latencies, percentile):
    """Nearest-rank percentile, or, when ``percentile`` is None, the
    mean of the slower half of the ops: the maximum of a handful of
    ops tracks the host's slowest moment in the run, not the program."""
    ordered = sorted(latencies)
    if percentile is None:
        return statistics.fmean(ordered[len(ordered) // 2:])
    rank = math.ceil(percentile / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def model_digest(counters) -> str:
    facts = {name: value for name, value in sorted(counters.items())
             if not name.startswith(ENGINE_PREFIXES)}
    blob = json.dumps(facts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check_digest(workload, counters) -> bool:
    """Print the model-fact digest and store it under the workload,
    seed and op count; False if an earlier run of the same key in this
    checkout recorded a different one."""
    digest = model_digest(counters)
    key = f"{workload.name}:{workload.seed}:{workload.count_ops}"
    OUT.mkdir(exist_ok=True)
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    same = known.setdefault(key, digest) == digest
    if same:
        scratch = path.with_suffix(".tmp")
        scratch.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(scratch, path)
    print(f"model-fact digest: {digest}"
          + ("" if same else "  MISMATCH with an earlier run"))
    return same


def run_ops(workload, indices, outcomes, tracer=None, host=None):
    """Run ops ``indices`` in order; append (index, input, output,
    error, latency, slot, (start, end)) to ``outcomes``, where ``slot``
    adds the input's generation to the latency.  Exceptions are
    recorded, not raised.  With a ``tracer``, each op runs under an
    ``op`` root span stamped with its index.  With a sampling ``host``,
    the reference loop's time is taken out of latency and slot.
    Returns the wall time of the loop."""
    run_op = workload.run_op
    if tracer is not None:
        run_op = tracer.wrap("op", run_op)
    clock = time.perf_counter
    spent = (lambda: host.spent) if host is not None else (lambda: 0.0)
    started = clock()
    for index in indices:
        slot, slot_spent = clock(), spent()
        op_input = workload.op_input(index)
        if tracer is not None:
            tracer.op = index
        t0, op_spent = clock(), spent()
        try:
            output, error = run_op(op_input), None
        except Exception:                  # an op failure, not ours
            output, error = None, traceback.format_exc()
        t1, end_spent = clock(), spent()
        outcomes.append((index, op_input, output, error,
                         t1 - t0 - (end_spent - op_spent),
                         t1 - slot - (end_spent - slot_spent), (t0, t1)))
    elapsed = clock() - started
    if tracer is not None:
        tracer.op = -1
    return elapsed


def timed_indices(workload, seconds):
    """Op indices until ``seconds`` have passed (checked between
    ops), and at least ``min_ops``."""
    deadline = time.perf_counter() + seconds
    index = 0
    while index < workload.min_ops or time.perf_counter() < deadline:
        yield index
        index += 1


def check_all(workload, outcomes):
    """(failed, correct items, total items), printing each failure."""
    failed = correct = total = 0
    for index, op_input, output, error, *_ in outcomes:
        if error is None:
            try:
                verdict = workload.check(op_input, output)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            failed += 1
            print(f"op {index} raised:\n{error}", file=sys.stderr)
            continue
        correct += verdict.correct
        total += verdict.total
        if not verdict.ok:
            failed += 1
            print(f"op {index} failed: {verdict.note}", file=sys.stderr)
    return failed, correct, total


def counted_pass(workload, telemetry):
    """Re-run the seed's first ``count_ops`` ops under a telemetry
    session; returns (finalized counters, outcomes)."""
    outcomes = []
    with telemetry.session() as sink:
        run_ops(workload, range(workload.count_ops), outcomes)
    return sink.snapshot(), outcomes


def measure_setup(workload, host) -> float:
    """Median import time of fresh interpreters plus the median of
    repeated in-process setups (victim builds, inputs, attack
    construction), scaled to the reference host speed; the last setup
    is the one the run uses."""
    probe = IMPORT_PROBE.format(src=str(ROOT / "src"), here=str(HERE))
    imports = [float(subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, timeout=120).stdout) for _ in range(SETUP_REPEATS)]
    setups = [host.timed(workload.setup) for _ in range(SETUP_REPEATS)]
    return statistics.median(imports) + statistics.median(setups)


def metric(value, unit):
    return {"value": value, "unit": unit}


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# the two modes
# ----------------------------------------------------------------------
def timed_run(workload, seconds, setup_s, telemetry, host):
    gc.collect()
    outcomes = []
    with host.sampling():
        phase_s = run_ops(workload, timed_indices(workload, seconds),
                          outcomes, host=host)
    # every op's latency and slot, scaled by the host speed during it
    scales = [host.scale(*outcome[6]) for outcome in outcomes]
    latencies = [outcome[4] * scale
                 for outcome, scale in zip(outcomes, scales)]
    busy_s = sum(outcome[5] * scale
                 for outcome, scale in zip(outcomes, scales))
    raw_busy_s = sum(outcome[5] for outcome in outcomes)
    failed, correct, total = check_all(workload, outcomes)

    counters, counted = counted_pass(workload, telemetry)
    failed += check_all(workload, counted)[0]
    # simulated instructions per op are deterministic per seed; the
    # counted ops stand in for every timed op of the run
    insns_per_op = (counters.get("cpu.core.instructions", 0)
                    + counters.get("cpu.interp.instructions", 0)
                    ) / workload.count_ops
    ops_per_s = len(outcomes) / busy_s

    percentile = workload.tail_percentile
    label = f"p{percentile}" if percentile else "slower-half mean"
    print(f"workload {workload.name}, seed {workload.seed}: "
          f"{len(outcomes)} ops in {phase_s:.2f} s, tail = {label} of "
          f"n={len(latencies)}; instructions counted over the first "
          f"{workload.count_ops} op(s)")
    print(f"host speed: median scale {statistics.median(scales):.4f} "
          f"(reference loop {hostspeed.REF_LOOP_S} s, "
          f"{len(host.samples)} samples); unscaled: "
          f"{len(outcomes) / raw_busy_s:.6g} ops/s, op p50 "
          f"{statistics.median(o[4] for o in outcomes):.6g} s")
    digest_ok = check_digest(workload, counters)
    print(f"fail ratio: {failed}/{len(outcomes) + len(counted)}; "
          f"probes per op: "
          f"{counters.get('core.probe.attempts', 0) / workload.count_ops:g}"
          f"; simulated instructions per op: {insns_per_op:g}")
    print(MODEL_NOTE)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(ops_per_s, "1/s"),
        "op_p50_s": metric(statistics.median(latencies), "s"),
        "op_tail_s": metric(tail(latencies, percentile), "s"),
        "sim_ips": metric(insns_per_op * ops_per_s, "insn/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB"),
        "attack_accuracy": metric(correct / total if total else 0.0,
                                  "ratio"),
    }
    for name, unit, _, _ in END_TO_END:
        print(f"  {name:16s} {metrics[name]['value']:.6g} {unit}")
    return (digest_ok, len(outcomes) + len(counted), failed, metrics)


def traced_run(workload, telemetry):
    from tracing import Tracer

    # untraced, traced, untraced again: the overhead compares the traced
    # pass with the mean of the two untraced passes around it, which
    # cancels first-op warm-up and slow drift of the host
    indices = range(workload.count_ops)
    untraced = []
    gc.collect()
    untraced_s = run_ops(workload, indices, untraced)

    tracer = Tracer()
    traced = []
    gc.collect()
    tracer.install()
    try:
        with telemetry.session() as sink:
            traced_s = run_ops(workload, indices, traced, tracer)
    finally:
        tracer.uninstall()
    gc.collect()
    untraced_s = (untraced_s + run_ops(workload, indices, untraced)) / 2
    failed = (check_all(workload, untraced)[0]
              + check_all(workload, traced)[0])
    counters = sink.snapshot()

    # the self times of every span in the ops must add up to the op
    # wall time measured outside the spans
    totals = tracer.layer_totals()
    op_wall = sum(outcome[4] for outcome in traced)
    root_self = totals.pop("op", [0, 0.0])[1]
    self_sum = root_self + sum(entry[1] for entry in totals.values())
    self_sum_error = abs(self_sum - op_wall) / op_wall

    values = {}
    for layer in _SPAN_LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
    for name in _COUNTERS:
        values[name] = counters.get(name, 0)
    core_insns = counters.get("cpu.core.instructions", 0)
    sb_hits = counters.get("cpu.superblock.hits", 0)
    sb_builds = counters.get("cpu.superblock.builds", 0)
    run_calls = sum(tracer.run_calls.values())
    run_insns = sum(tracer.run_insns.values())
    attempts = counters.get("core.probe.attempts", 0)
    values.update({
        "memory.code_gen_bumps.write": tracer.code_gen_bumps["write"],
        "memory.code_gen_bumps.remap": tracer.code_gen_bumps["remap"],
        "core.probe.useful_ratio": ratio(
            counters.get("core.probe.readings", 0), attempts),
        "core.probe.attempts_per_op": attempts / workload.count_ops,
        "cpu.run.insns_per_call": ratio(run_insns, run_calls),
        "cpu.run.single_step_call_share": ratio(
            tracer.run_calls["single"], run_calls),
        "cpu.run.single_step_insn_share": ratio(
            tracer.run_insns["single"], run_insns),
        "cpu.fastpath.coverage": ratio(
            counters.get("cpu.core.fastpath.instructions", 0),
            core_insns),
        "cpu.superblock.hit_ratio": ratio(sb_hits, sb_hits + sb_builds),
        # the core and the interpreter share the decoder
        "cpu.decode.misses_per_kinsn": ratio(
            counters.get("cpu.decode.misses", 0) * 1000,
            core_insns + counters.get("cpu.interp.instructions", 0)),
        "op.unattributed_s": root_self,
        "trace.span_coverage": ratio(op_wall - root_self, op_wall),
        "trace.self_sum_error": self_sum_error,
        "trace.spans": len(tracer.spans),
        "trace.ops_per_s_traced": len(traced) / traced_s,
        "trace.ops_per_s_untraced": workload.count_ops / untraced_s,
        "trace.overhead": traced_s / untraced_s - 1,
    })

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    with open(path, "w") as handle:
        handle.write(json.dumps({"workload": workload.name,
                                 "seed": workload.seed,
                                 "fields": ["name", "start", "end",
                                            "parent", "op"]}) + "\n")
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")

    print(f"workload {workload.name}, seed {workload.seed}: traced "
          f"{len(traced)} op(s), {len(tracer.spans)} spans -> {path.name}")
    digest_ok = check_digest(workload, counters)
    print(f"span self times sum to {self_sum:.6f} s of {op_wall:.6f} s "
          f"op wall (relative error {self_sum_error:.2e})")
    print(MODEL_NOTE)
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: metric(values[name], units[name])
               for name, _, _ in PER_LAYER}
    for name, _, _ in PER_LAYER:
        print(f"  {name:36s} {values[name]:.6g} {units[name]}")
    ok = digest_ok and self_sum_error < 1e-3
    return ok, len(untraced) + len(traced), failed, metrics


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; re-check claims on "
             f"the held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from repro import telemetry
    import workloads

    if args.write_manifest:
        text = json.dumps(manifest(workloads.WORKLOADS), indent=2)
        (ROOT / "BENCHMARK.json").write_text(text + "\n")
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    host = hostspeed.HostSpeed()
    setup_s = measure_setup(workload, host)

    if args.trace:
        ok, attempted, failed, metrics = traced_run(workload, telemetry)
    else:
        ok, attempted, failed, metrics = timed_run(
            workload, args.seconds, setup_s, telemetry, host)
    print(json.dumps({"correct": ok and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
