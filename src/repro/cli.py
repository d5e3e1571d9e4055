"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show every reproducible experiment with its paper artefact.
``run <experiment> [--fast] [--seed N] [--backend B] [--out DIR]``
    Run one experiment harness and print its findings.  ``--backend``
    re-runs it on a non-default BTB design family
    (intel/arm/sodor/orcs, see :mod:`repro.cpu.btb_backends`).
``demo``
    A 30-second tour: Takeaways 1 & 2 plus one NV-Core detection.
``campaign``
    Run the whole experiment suite through the crash-tolerant runner
    (:mod:`repro.runner`): subprocess-isolated workers, watchdog
    timeouts, retry with backoff, checkpointed ``--resume``, and a
    ``--chaos kill-worker`` failure drill.  With ``--shards N`` the
    campaign runs through the sharded service scheduler
    (:mod:`repro.service`) instead: N supervised process-group fault
    domains, heartbeat leases, a consecutive-failure circuit breaker
    with quarantine + job reassignment, and the shard-level
    ``--chaos kill-shard`` / ``--chaos stall-shard`` drills.  Exits
    0 COMPLETED, 1 FAILED, 3 INTERRUPTED (resumable), 4 DEGRADED
    (completed with exactly-accounted job loss).
``serve [--port P] [--runs-dir DIR] [--queue-depth N]``
    Run the campaign service: a stdlib HTTP/JSON API
    (:mod:`repro.service.http`) with bounded-queue admission control
    in front of the sharded scheduler.  SIGTERM/SIGINT shut down
    gracefully — the running campaign checkpoints as resumable.
``submit [--url URL] [...campaign flags]``
    Submit a campaign to a running service and (by default) wait for
    its terminal state; same exit-code contract as ``campaign``.
``bench``
    Run the perf-regression suite (:mod:`repro.perf.suite`): times the
    simulator hot loops with the decoded-window fast path off and on,
    writes ``BENCH_perf.json``, and can gate against a baseline.
``stats <experiment> [--fast] [--seed N] [--out PATH] [--timings]``
    Run one experiment inside a tracing telemetry session
    (:mod:`repro.telemetry`) and print the deterministic counter
    report with its digest.  ``--timings`` appends the wall-clock
    span section to the console (never to the ``--out`` artifact,
    which stays byte-stable under a fixed seed).
``trace <experiment> [--fast] [--seed N] [--out PATH]``
    Same run, but write the structured event trace as canonical JSON
    lines — byte-identical across runs with the same seed.  Default
    output path is ``TRACE_<experiment>.jsonl``; ``--out -`` streams
    to stdout.
``lint``
    Static leakage + BTB-aliasing audit of the victims library
    (:mod:`repro.analysis.lint`): CFG recovery, secret-taint dataflow
    seeded from each victim's declared secret inputs, and the
    collision/false-hit map.  Exits non-zero on findings outside a
    victim's ``leak_allowlist`` (or on golden-report drift with
    ``--golden``).
``portability``
    Run ``exp_portability``: the attack × BTB-design survival matrix
    (NV-Core deallocation, PW-range traversal and fingerprinting
    against the intel/arm/sodor/orcs backends).  The output is
    byte-stable; ``--golden`` diffs it against the committed report
    (exit 3 on drift), mirroring ``lint``/``certify``.
``certify``
    Symbolic leakage certification
    (:mod:`repro.analysis.symbolic`): path-sensitive bit-vector
    exploration proves every BTB-visible branch site
    ``PROVEN_LEAKY`` (with two synthesized witnesses whose replayed
    BTB event streams diverge) or ``PROVEN_SAFE``, then re-certifies
    and dynamically validates the constant-time auto-rewrite.  Exit 2
    on new leaks or failed validation, 3 on golden drift (including
    a missing or quarantined-corrupt golden).

``--seed`` is the single reproducibility knob: it reaches every
stochastic layer — RSA key generation, LBR timing noise, corpus
sampling, fault-injection schedules — so two invocations with the same
seed print identical numbers.  Experiments keep their per-experiment
default seeds when the flag is omitted.

The experiment registry itself lives in
:mod:`repro.experiments.common`; each ``exp_*`` module registers its
own summary runner, and this module (like the campaign workers) only
consumes the registry.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, Optional, Tuple

from .analysis import ascii_table, campaign_block
from .errors import CampaignError, DiskFaultError
from .experiments.common import (EXPERIMENTS, RunRequest,
                                 run_experiment)

#: compatibility view of the registry: name -> (artefact, runner),
#: runners taking ``(fast, seed)`` like the original in-module table.
_EXPERIMENTS: Dict[str, Tuple[str, object]] = {
    name: (spec.artefact,
           (lambda fast, seed, _name=name:
            run_experiment(_name, RunRequest(fast=fast, seed=seed))))
    for name, spec in EXPERIMENTS.items()
}


def _cmd_list() -> int:
    print(ascii_table(
        ("experiment", "paper artefact"),
        [(spec.name, spec.artefact)
         for spec in EXPERIMENTS.values()]))
    return 0


def _cmd_run(name: str, fast: bool, seed: Optional[int] = None,
             out: Optional[str] = None,
             backend: Optional[str] = None) -> int:
    if name not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        print(f"unknown experiment {name!r}; known: {known}",
              file=sys.stderr)
        return 2
    spec = EXPERIMENTS[name]
    print(f"== {spec.artefact} ==")
    started = time.time()
    output = run_experiment(name, RunRequest(fast=fast, seed=seed,
                                             backend=backend))
    print(output)
    print(f"({time.time() - started:.1f}s)")
    if out is not None:
        from .storage import atomic_write_text
        path = atomic_write_text(f"{out}/{name}.txt", output + "\n")
        print(f"artifact written atomically to {path}")
    return 0


def _cmd_demo(seed: Optional[int] = None) -> int:
    for name in ("fig2", "fig4", "fig5"):
        _cmd_run(name, fast=True, seed=seed)
        print()
    return 0


def _campaign_rows(manifest):
    from .runner import JobStatus
    rows = []
    for record in manifest.records():
        result = (record.digest[:12]
                  if record.status is JobStatus.COMPLETED
                  else record.error)
        rows.append((record.job_id, record.status.value,
                     record.attempts, record.duration_s, result))
    return rows


#: chaos drills handled by the sharded service (the plain runner keeps
#: worker-level kill-worker)
_SHARD_CHAOS = ("kill-shard", "stall-shard")

#: chaos drills that strike the durable storage layer (work in both
#: single-host and sharded mode — the injector is inherited by forked
#: shard process groups)
_STORAGE_CHAOS = ("torn-write", "bit-flip", "enospc", "fsync-fail")

_SERVICE_EXIT = {"COMPLETED": 0, "FAILED": 1, "INTERRUPTED": 3,
                 "DEGRADED": 4}


def _render_service_summary(manifest) -> str:
    from .analysis import service_block
    from .service import merge_shards
    merged = merge_shards(manifest)
    tally: Dict[str, int] = {}
    for entry in merged["jobs"].values():
        status = str(entry["status"])
        tally[status] = tally.get(status, 0) + 1
    digest = (str(merged["digest"])
              if manifest.aggregate_path.exists() else "")
    return service_block(
        manifest.campaign_id, manifest.status,
        [(entry.shard_id, entry.status, len(entry.jobs),
          entry.strikes, entry.restarts, entry.origin)
         for entry in manifest.shards.values()],
        sorted(tally.items()),
        lost=sorted(manifest.lost.items()),
        digest=digest)


def _cmd_campaign_service(args, specs) -> int:
    from .service import ServiceChaos, run_service_campaign
    chaos = None
    if args.chaos in _SHARD_CHAOS:
        chaos = ServiceChaos(mode=args.chaos,
                             strikes=args.chaos_kills,
                             delay_s=args.chaos_delay,
                             seed=args.seed or 0,
                             target=args.chaos_target)
    elif args.chaos is not None:
        print("--chaos kill-worker drills the single-host runner; "
              "use kill-shard/stall-shard with --shards",
              file=sys.stderr)
        return 2
    options = {
        "workers_per_shard": args.jobs,
        "stall_timeout": args.stall_timeout,
        "lease_s": args.lease,
        "breaker_threshold": args.breaker_threshold,
        "max_reassignments": args.max_reassignments,
    }

    def on_event(shard_id: str, message: str) -> None:
        print(f"[{shard_id}] {message}")

    try:
        manifest = run_service_campaign(
            specs, args.runs_dir,
            campaign_id=args.resume or args.campaign_id,
            seed=args.seed, shards=max(args.shards, 1),
            resume=args.resume is not None, options=options,
            chaos=chaos,
            on_event=on_event if args.verbose else None)
    except DiskFaultError as error:
        print(f"storage fault: {error}", file=sys.stderr)
        print("campaign INTERRUPTED by storage fault; the journal "
              "recovers it on --resume", file=sys.stderr)
        return 3
    except CampaignError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(_render_service_summary(manifest))
    print(f"manifest: {manifest.path}")
    return _SERVICE_EXIT.get(manifest.status, 1)


def _cmd_campaign(args) -> int:
    from .runner import (ChaosMonkey, experiment_jobs, run_campaign)
    if args.chaos in _STORAGE_CHAOS:
        # Storage drills perturb the atomic writer itself; the
        # campaign-level chaos slot is then clear for the runner.
        from .faults import DiskFaultInjector
        from .storage import install_disk_faults
        install_disk_faults(DiskFaultInjector(
            mode=args.chaos, seed=args.seed or 0,
            strikes=args.chaos_kills,
            strike_after=args.chaos_write,
            match=args.chaos_match))
        args.chaos = None
    use_service = args.shards > 0 or args.chaos in _SHARD_CHAOS
    if args.resume is not None:
        from pathlib import Path

        from .service import SERVICE_MANIFEST_NAME
        if (Path(args.runs_dir) / args.resume /
                SERVICE_MANIFEST_NAME).exists():
            use_service = True
    specs = []
    if args.resume is None:
        only = (args.only.split(",") if args.only else None)
        try:
            specs = experiment_jobs(
                fast=args.fast, seed=args.seed, plan=args.plan,
                plan_factor=args.plan_factor, timeout_s=args.timeout,
                max_attempts=args.retries + 1, only=only)
        except CampaignError as error:
            print(str(error), file=sys.stderr)
            return 2
    if use_service:
        if args.vectorize > 1:
            print("--vectorize applies to the single-host runner only "
                  "(not --shards / service mode)", file=sys.stderr)
            return 2
        return _cmd_campaign_service(args, specs)
    chaos = None
    if args.chaos is not None:
        chaos = ChaosMonkey(mode=args.chaos, kills=args.chaos_kills,
                            delay_s=args.chaos_delay,
                            seed=args.seed or 0)

    def on_event(job_id: str, message: str) -> None:
        print(f"[{job_id}] {message}")

    try:
        manifest = run_campaign(
            specs, args.runs_dir,
            campaign_id=args.resume or args.campaign_id,
            seed=args.seed, resume=args.resume is not None,
            max_workers=args.jobs, stall_timeout=args.stall_timeout,
            chaos=chaos, vectorize=args.vectorize,
            on_event=on_event if args.verbose else None)
    except DiskFaultError as error:
        print(f"storage fault: {error}", file=sys.stderr)
        print("campaign INTERRUPTED by storage fault; the journal "
              "recovers it on --resume", file=sys.stderr)
        return 3
    except CampaignError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(campaign_block(manifest.campaign_id,
                         _campaign_rows(manifest),
                         interrupted=manifest.interrupted))
    print(f"manifest: {manifest.path}")
    if manifest.interrupted:
        return 3
    return 0 if manifest.all_completed() else 1


def _cmd_serve(args) -> int:
    import signal
    import threading

    from .service import ServiceServer

    def on_event(shard_id: str, message: str) -> None:
        print(f"[{shard_id}] {message}", flush=True)

    server = ServiceServer(
        args.runs_dir, host=args.host, port=args.port,
        queue_depth=args.queue_depth,
        options={"workers_per_shard": args.jobs},
        on_event=on_event if args.verbose else None)
    stop_requested = threading.Event()

    def _handle(signum, frame):    # noqa: ARG001 - signal signature
        stop_requested.set()

    signal.signal(signal.SIGTERM, _handle)
    signal.signal(signal.SIGINT, _handle)
    server.start()
    print(f"serving on {server.url} (runs: {args.runs_dir}, "
          f"queue depth {args.queue_depth})", flush=True)
    while not stop_requested.wait(0.2):
        pass
    print("shutting down (running campaign checkpoints as "
          "resumable) ...", flush=True)
    server.stop()
    return 0


def _cmd_submit(args) -> int:
    from .analysis import service_block
    from .errors import AdmissionRejected, ServiceError
    from .service import ServiceClient
    client = ServiceClient(args.url, timeout=args.http_timeout)
    try:
        if args.resume is not None:
            campaign_id = args.resume
            client.resume(campaign_id)
            print(f"resume accepted: {campaign_id}")
        else:
            experiments: Dict[str, object] = {"fast": args.fast}
            if args.only:
                experiments["only"] = args.only.split(",")
            if args.seed is not None:
                experiments["seed"] = args.seed
            if args.plan:
                experiments["plan"] = args.plan
                experiments["plan_factor"] = args.plan_factor
            experiments["timeout_s"] = args.timeout
            experiments["max_attempts"] = args.retries + 1
            payload: Dict[str, object] = {
                "experiments": experiments,
                "shards": args.shards or 2,
            }
            if args.seed is not None:
                payload["seed"] = args.seed
            campaign_id = client.submit(payload)
            print(f"submitted: {campaign_id}")
        if args.no_wait:
            return 0
        status = client.wait(campaign_id,
                             timeout=args.wait_timeout or None)
        final = str(status.get("status"))
        digest = ""
        jobs_tally = [(name, int(count)) for name, count
                      in dict(status.get("jobs", {})).items()]
        try:
            results = client.results(campaign_id)
            digest = str(results.get("digest", ""))
            jobs_tally = {}
            for entry in dict(results.get("jobs", {})).values():
                name = str(entry["status"])
                jobs_tally[name] = jobs_tally.get(name, 0) + 1
            jobs_tally = sorted(jobs_tally.items())
        except ServiceError:
            pass                   # not terminal-with-aggregate yet
        shards = [(shard_id, str(info.get("status")),
                   int(info.get("jobs", 0)),
                   int(info.get("strikes", 0)),
                   int(info.get("restarts", 0)),
                   str(info.get("origin", "")))
                  for shard_id, info
                  in dict(status.get("shards", {})).items()]
        print(service_block(campaign_id, final, shards,
                            sorted(jobs_tally),
                            lost=sorted(dict(status.get(
                                "lost", {})).items()),
                            digest=digest))
        return _SERVICE_EXIT.get(final, 1)
    except AdmissionRejected as error:
        print(f"rejected (backpressure): {error}", file=sys.stderr)
        return 2
    except ServiceError as error:
        print(str(error), file=sys.stderr)
        return 2


def _observe(name: str, fast: bool, seed: Optional[int],
             backend: Optional[str] = None):
    """Run ``name`` inside a tracing telemetry session; return the
    finalized sink (or None for an unknown experiment)."""
    if name not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        print(f"unknown experiment {name!r}; known: {known}",
              file=sys.stderr)
        return None
    from . import telemetry
    with telemetry.session(trace=True) as sink:
        run_experiment(name, RunRequest(fast=fast, seed=seed,
                                        backend=backend))
    return sink


def _cmd_stats(name: str, fast: bool, seed: Optional[int] = None,
               out: Optional[str] = None, timings: bool = False,
               backend: Optional[str] = None) -> int:
    from . import telemetry
    sink = _observe(name, fast, seed, backend)
    if sink is None:
        return 2
    print(telemetry.render_stats(sink, timings=timings), end="")
    if out is not None:
        from .storage import atomic_write_text
        # The artifact always gets the deterministic rendering —
        # span timings are wall clock and would break byte-stability.
        path = atomic_write_text(out, telemetry.render_stats(sink))
        print(f"stats written atomically to {path}")
    return 0


def _cmd_trace(name: str, fast: bool, seed: Optional[int] = None,
               out: Optional[str] = None,
               backend: Optional[str] = None) -> int:
    from . import telemetry
    sink = _observe(name, fast, seed, backend)
    if sink is None:
        return 2
    rendered = telemetry.render_trace(sink)
    if out == "-":
        sys.stdout.write(rendered)
        return 0
    from .storage import atomic_write_text
    path = atomic_write_text(out if out is not None
                             else f"TRACE_{name}.jsonl", rendered)
    print(f"{len(sink.events)} event(s) traced")
    print(f"trace digest: {telemetry.trace_digest(sink)}")
    print(f"trace written atomically to {path}")
    return 0


#: envelope schema tag for the ``repro certify`` golden artifact
CERTIFY_GOLDEN_SCHEMA = "certify-report@1"


def _load_golden(tool: str, golden: str,
                 schema: Optional[str] = None) -> Optional[str]:
    """Load a committed golden report, or None when it cannot serve.

    A golden that is missing or corrupt is a *drift* condition — the
    caller exits 3 ("regenerate and commit"), never a stack trace and
    never exit 2 (which is reserved for real findings).  Corrupt
    goldens are quarantined aside (``<name>.corrupt``) so forensics
    survive and the next ``--out`` starts clean.  With ``schema`` the
    file must be an enveloped JSON document
    (:func:`repro.storage.parse_document`) whose payload carries the
    report text; without it the file is legacy plain text.
    """
    import os

    from .errors import ArtifactCorrupt
    from .storage import quarantine_file

    if not os.path.exists(golden):
        print(f"{tool}: golden report missing at {golden} "
              f"(re-generate with `repro {tool} --out {golden}` "
              f"and commit)", file=sys.stderr)
        return None
    if schema is None:
        try:
            with open(golden, "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError as error:
            print(f"{tool}: cannot read golden report: {error}",
                  file=sys.stderr)
            return None
    from .storage import parse_document, read_json
    try:
        document = read_json(golden)
        payload, found_schema, _ = parse_document(document)
        if found_schema != schema:
            raise ArtifactCorrupt(
                f"golden schema {found_schema!r}, expected {schema!r}")
        report = payload.get("report") if isinstance(payload, dict) \
            else None
        if not isinstance(report, str):
            raise ArtifactCorrupt("golden payload lacks a report body")
        return report
    except (OSError, ValueError, ArtifactCorrupt) as error:
        destination = quarantine_file(golden)
        where = (f"; quarantined to {destination}"
                 if destination is not None else "")
        print(f"{tool}: golden report corrupt: {error}{where} "
              f"(re-generate with `repro {tool} --out {golden}` "
              f"and commit)", file=sys.stderr)
        return None


def _diff_golden(tool: str, rendered: str, golden: str,
                 expected: str) -> int:
    """Diff the fresh report against the golden text: 0 or 3."""
    if rendered == expected:
        print(f"golden report match: {golden}")
        return 0
    import difflib
    diff = difflib.unified_diff(
        expected.splitlines(keepends=True),
        rendered.splitlines(keepends=True),
        fromfile=golden, tofile="current")
    sys.stderr.writelines(diff)
    print(f"{tool}: report drifted from the golden copy "
          f"(re-generate with `repro {tool} --out` and commit "
          f"if the change is intended)", file=sys.stderr)
    return 3


def _cmd_lint(out: Optional[str] = None,
              golden: Optional[str] = None) -> int:
    from .analysis.lint import run_lint

    report = run_lint()
    rendered = report.render()
    print(rendered, end="")
    if out is not None:
        from .storage import atomic_write_text
        path = atomic_write_text(out, rendered)
        print(f"report written atomically to {path}")
    status = 0
    if not report.ok:
        print(f"lint: {len(report.new_findings)} unannotated "
              f"finding(s)", file=sys.stderr)
        status = 2
    if golden is not None:
        expected = _load_golden("lint", golden)
        if expected is None:
            return status or 3
        status = status or _diff_golden("lint", rendered, golden,
                                        expected)
    return status


def _cmd_portability(out: Optional[str] = None,
                     golden: Optional[str] = None) -> int:
    from .experiments.exp_portability import (render_matrix,
                                              run_portability)

    rendered = render_matrix(run_portability()) + "\n"
    print(rendered, end="")
    if out is not None:
        from .storage import atomic_write_text
        path = atomic_write_text(out, rendered)
        print(f"report written atomically to {path}")
    if golden is not None:
        expected = _load_golden("portability", golden)
        if expected is None:
            return 3
        return _diff_golden("portability", rendered, golden, expected)
    return 0


def _cmd_certify(out: Optional[str] = None,
                 golden: Optional[str] = None,
                 no_rewrite: bool = False) -> int:
    from .analysis.symbolic import run_certify

    report = run_certify(rewrite=not no_rewrite)
    rendered = report.render()
    print(rendered, end="")
    if out is not None:
        from .storage import write_envelope
        path = write_envelope(out, {"report": rendered},
                              CERTIFY_GOLDEN_SCHEMA)
        print(f"report written atomically to {path}")
    status = 0
    if not report.ok:
        print(f"certify: {len(report.failures)} problem(s)",
              file=sys.stderr)
        status = 2
    if golden is not None:
        expected = _load_golden("certify", golden,
                                schema=CERTIFY_GOLDEN_SCHEMA)
        if expected is None:
            return status or 3
        status = status or _diff_golden("certify", rendered, golden,
                                        expected)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NightVision (ISCA 2023) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiments")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment")
    run.add_argument("--fast", action="store_true",
                     help="reduced parameters for a quick look")
    run.add_argument("--seed", type=int, default=None,
                     help="seed every RNG (keys, noise, faults); "
                          "omit for the experiment's default")
    run.add_argument("--out", default=None, metavar="DIR",
                     help="also write the findings to DIR/<name>.txt "
                          "via the atomic artifact writer")
    run.add_argument("--backend", default=None,
                     choices=["intel", "arm", "sodor", "orcs"],
                     help="run on a non-default BTB design family "
                          "(default: each experiment's own config)")

    demo = sub.add_parser("demo", help="30-second tour")
    demo.add_argument("--seed", type=int, default=None,
                      help="seed every RNG in the demo experiments")

    campaign = sub.add_parser(
        "campaign",
        help="run the experiment suite through the crash-tolerant "
             "runner (checkpointed, resumable)")
    campaign.add_argument("--fast", action="store_true",
                          help="reduced parameters per experiment")
    campaign.add_argument("--seed", type=int, default=None,
                          help="campaign-wide seed for every job")
    campaign.add_argument("--only", default=None, metavar="A,B,...",
                          help="comma-separated experiment subset")
    campaign.add_argument("--jobs", "-j", type=int, default=2,
                          help="parallel workers (default 2)")
    campaign.add_argument("--vectorize", type=int, default=1,
                          metavar="N",
                          help="batch N jobs per worker process, "
                               "amortizing fork + warm-up cost "
                               "(default 1 = one process per job; "
                               "single-host runner only, incompatible "
                               "with --chaos)")
    campaign.add_argument("--timeout", type=float, default=300.0,
                          metavar="S",
                          help="per-job wall-clock budget, seconds")
    campaign.add_argument("--stall-timeout", type=float, default=10.0,
                          metavar="S",
                          help="kill a worker whose heartbeat is older "
                               "than S seconds")
    campaign.add_argument("--retries", type=int, default=2,
                          help="retry budget per job on transient "
                               "failures (default 2)")
    campaign.add_argument("--plan", default="",
                          help="fault-plan preset every job carries "
                               "(clean, acceptance, noisy-neighbour, "
                               "hostile)")
    campaign.add_argument("--plan-factor", type=float, default=1.0,
                          help="scale factor applied to --plan rates")
    campaign.add_argument("--campaign-id", default=None,
                          help="explicit campaign id (default: "
                               "generated timestamp id)")
    campaign.add_argument("--runs-dir", default="runs",
                          help="checkpoint root (default: runs/)")
    campaign.add_argument("--resume", default=None, metavar="ID",
                          help="resume campaign ID: skip COMPLETED "
                               "jobs, re-run the rest")
    campaign.add_argument("--chaos", default=None,
                          choices=["kill-worker", "kill-shard",
                                   "stall-shard", "torn-write",
                                   "bit-flip", "enospc",
                                   "fsync-fail"],
                          help="failure drill: kill-worker SIGKILLs "
                               "random workers then interrupts (prove "
                               "--resume converges); kill-shard / "
                               "stall-shard strike whole shard process "
                               "groups (the service must self-heal); "
                               "torn-write / bit-flip / enospc / "
                               "fsync-fail strike manifest checkpoint "
                               "writes (the storage journal must "
                               "recover on resume)")
    campaign.add_argument("--chaos-kills", type=int, default=1,
                          help="workers/shards/writes to strike")
    campaign.add_argument("--chaos-write", type=int, default=0,
                          metavar="N",
                          help="storage chaos: strike the Nth "
                               "matching checkpoint write (default 0 "
                               "= seeded in [2, 6])")
    campaign.add_argument("--chaos-match", default="manifest.json",
                          metavar="GLOB",
                          help="storage chaos: file-name glob the "
                               "fault targets (default manifest.json)")
    campaign.add_argument("--chaos-delay", type=float, default=0.2,
                          metavar="S",
                          help="minimum campaign age before the first "
                               "chaos kill")
    campaign.add_argument("--chaos-target", default=None,
                          metavar="SHARD",
                          help="pin shard chaos to one shard id "
                               "(default: pseudo-random victim)")
    campaign.add_argument("--shards", type=int, default=0,
                          help="run through the sharded service "
                               "scheduler with N fault domains "
                               "(default 0 = single-host runner)")
    campaign.add_argument("--lease", type=float, default=5.0,
                          metavar="S",
                          help="shard heartbeat lease; a staler shard "
                               "is struck (service mode)")
    campaign.add_argument("--breaker-threshold", type=int, default=2,
                          metavar="N",
                          help="consecutive strikes before a shard is "
                               "quarantined (service mode)")
    campaign.add_argument("--max-reassignments", type=int, default=1,
                          metavar="N",
                          help="per-job reassignment budget after "
                               "quarantines; beyond it the job is "
                               "LOST and the campaign DEGRADED")
    campaign.add_argument("--verbose", "-v", action="store_true",
                          help="print per-job lifecycle events")

    serve = sub.add_parser(
        "serve",
        help="run the campaign service: sharded scheduler behind a "
             "stdlib HTTP/JSON API with bounded-queue admission "
             "control")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="listen port (default 8642; 0 = ephemeral)")
    serve.add_argument("--runs-dir", default="runs",
                       help="checkpoint root (default: runs/)")
    serve.add_argument("--queue-depth", type=int, default=8,
                       help="bounded submission queue; beyond it "
                            "submissions get HTTP 429 (default 8)")
    serve.add_argument("--jobs", "-j", type=int, default=2,
                       help="workers per shard (default 2)")
    serve.add_argument("--verbose", "-v", action="store_true",
                       help="print shard lifecycle events")

    submit = sub.add_parser(
        "submit",
        help="submit a campaign to a running service and wait for "
             "its terminal state")
    submit.add_argument("--url", default="http://127.0.0.1:8642",
                        help="service base URL")
    submit.add_argument("--fast", action="store_true",
                        help="reduced parameters per experiment")
    submit.add_argument("--seed", type=int, default=None,
                        help="campaign-wide seed for every job")
    submit.add_argument("--only", default=None, metavar="A,B,...",
                        help="comma-separated experiment subset")
    submit.add_argument("--plan", default="",
                        help="fault-plan preset every job carries")
    submit.add_argument("--plan-factor", type=float, default=1.0,
                        help="scale factor applied to --plan rates")
    submit.add_argument("--timeout", type=float, default=300.0,
                        metavar="S",
                        help="per-job wall-clock budget, seconds")
    submit.add_argument("--retries", type=int, default=2,
                        help="retry budget per job (default 2)")
    submit.add_argument("--shards", type=int, default=2,
                        help="shard count for the submission")
    submit.add_argument("--resume", default=None, metavar="ID",
                        help="ask the service to resume campaign ID "
                             "instead of submitting new jobs")
    submit.add_argument("--no-wait", action="store_true",
                        help="return right after the 202 instead of "
                             "polling to a terminal state")
    submit.add_argument("--wait-timeout", type=float, default=0.0,
                        metavar="S",
                        help="give up waiting after S seconds "
                             "(default: wait forever)")
    submit.add_argument("--http-timeout", type=float, default=10.0,
                        metavar="S",
                        help="per-request HTTP timeout")

    bench = sub.add_parser(
        "bench",
        help="run the perf suite (fast path off vs on) and write "
             "BENCH_perf.json")
    bench.add_argument("--quick", action="store_true",
                       help="reduced iteration counts (CI smoke)")
    bench.add_argument("--out", default="BENCH_perf.json",
                       help="report path (default: BENCH_perf.json)")
    bench.add_argument("--profile", default=None, metavar="PATH",
                       help="also cProfile the suite and dump pstats "
                            "data to PATH")
    bench.add_argument("--compare", default=None, metavar="BASELINE",
                       help="diff speedup ratios against a baseline "
                            "report; non-zero exit on regression")
    bench.add_argument("--threshold", type=float, default=None,
                       help="allowed fractional speedup regression "
                            "(default: 0.25)")
    bench.add_argument("--telemetry-threshold", type=float, default=None,
                       help="allowed fractional telemetry overhead on "
                            "the core hot loop (default: 0.03)")

    stats = sub.add_parser(
        "stats",
        help="run one experiment under telemetry and print the "
             "deterministic counter report")
    stats.add_argument("experiment")
    stats.add_argument("--fast", action="store_true",
                       help="reduced parameters for a quick look")
    stats.add_argument("--seed", type=int, default=None,
                       help="seed every RNG; omit for the "
                            "experiment's default")
    stats.add_argument("--out", default=None, metavar="PATH",
                       help="also write the (deterministic) report "
                            "to PATH via the atomic artifact writer")
    stats.add_argument("--timings", action="store_true",
                       help="append wall-clock span timings to the "
                            "console output (never to --out)")
    stats.add_argument("--backend", default=None,
                       choices=["intel", "arm", "sodor", "orcs"],
                       help="run on a non-default BTB design family")

    trace = sub.add_parser(
        "trace",
        help="run one experiment under telemetry and write the "
             "canonical JSONL event trace (byte-stable per seed)")
    trace.add_argument("experiment")
    trace.add_argument("--fast", action="store_true",
                       help="reduced parameters for a quick look")
    trace.add_argument("--seed", type=int, default=None,
                       help="seed every RNG; omit for the "
                            "experiment's default")
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="trace path (default: "
                            "TRACE_<experiment>.jsonl; '-' for "
                            "stdout)")
    trace.add_argument("--backend", default=None,
                       choices=["intel", "arm", "sodor", "orcs"],
                       help="run on a non-default BTB design family")

    lint = sub.add_parser(
        "lint",
        help="static leakage + BTB-aliasing audit of the victims "
             "library; non-zero exit on unannotated findings")
    lint.add_argument("--out", default=None, metavar="PATH",
                      help="also write the findings report to PATH "
                           "via the atomic artifact writer")
    lint.add_argument("--golden", default=None, metavar="PATH",
                      help="compare against a committed golden report; "
                           "non-zero exit on drift")

    portability = sub.add_parser(
        "portability",
        help="attack x BTB-design survival matrix across the "
             "intel/arm/sodor/orcs backends; byte-stable output, "
             "exit 3 on golden drift")
    portability.add_argument("--out", default=None, metavar="PATH",
                             help="also write the matrix report to "
                                  "PATH via the atomic artifact "
                                  "writer")
    portability.add_argument("--golden", default=None, metavar="PATH",
                             help="compare against a committed golden "
                                  "report; exit 3 on drift")

    certify = sub.add_parser(
        "certify",
        help="symbolic leakage certification: prove every victim "
             "PROVEN_LEAKY (with replayable witnesses) or "
             "PROVEN_SAFE, then validate the constant-time rewrite; "
             "exit 2 on new leaks, 3 on golden drift")
    certify.add_argument("--out", default=None, metavar="PATH",
                         help="also write the certification report "
                              "to PATH as an enveloped artifact")
    certify.add_argument("--golden", default=None, metavar="PATH",
                         help="compare against a committed golden "
                              "report; non-zero exit on drift")
    certify.add_argument("--no-rewrite", action="store_true",
                         help="skip the constant-time auto-rewrite "
                              "validation pass")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiment, args.fast, args.seed,
                        args.out, args.backend)
    if args.command == "demo":
        return _cmd_demo(args.seed)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "bench":
        from .perf.suite import DEFAULT_THRESHOLD
        from .perf.suite import main as bench_main
        forwarded = []
        if args.quick:
            forwarded.append("--quick")
        forwarded += ["--out", args.out]
        if args.profile:
            forwarded += ["--profile", args.profile]
        if args.compare:
            forwarded += ["--compare", args.compare]
        threshold = (args.threshold if args.threshold is not None
                     else DEFAULT_THRESHOLD)
        forwarded += ["--threshold", str(threshold)]
        if args.telemetry_threshold is not None:
            forwarded += ["--telemetry-threshold",
                          str(args.telemetry_threshold)]
        return bench_main(forwarded)
    if args.command == "stats":
        return _cmd_stats(args.experiment, args.fast, args.seed,
                          args.out, args.timings, args.backend)
    if args.command == "trace":
        return _cmd_trace(args.experiment, args.fast, args.seed,
                          args.out, args.backend)
    if args.command == "lint":
        return _cmd_lint(args.out, args.golden)
    if args.command == "portability":
        return _cmd_portability(args.out, args.golden)
    if args.command == "certify":
        return _cmd_certify(args.out, args.golden, args.no_rewrite)
    return 2                                      # pragma: no cover


if __name__ == "__main__":                        # pragma: no cover
    sys.exit(main())
