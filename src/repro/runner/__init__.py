"""Crash-tolerant campaign execution.

The paper's results are *campaigns* — thousands of repeated probe runs
per figure — and PR 1's resilient measurement policy only protects a
single measurement.  This package protects the layer above it:

* every job runs in a **subprocess-isolated worker** (a crash or hang
  loses one attempt, never the campaign);
* a **watchdog** SIGKILLs workers that blow their wall-clock budget or
  stop heartbeating, marking the job ``TIMED_OUT``;
* transient failures (:class:`MeasurementUnstable`, worker crashes,
  timeouts) retry with **exponential backoff + jitter** up to a
  per-job attempt budget;
* all state checkpoints into a :class:`RunManifest` under
  ``runs/<campaign-id>/`` through **atomic writes**, so ``--resume``
  skips completed jobs and re-runs only the rest — converging to
  byte-identical results;
* a **chaos mode** (``--chaos kill-worker``) SIGKILLs random workers
  mid-campaign and aborts, proving the resume path end-to-end.

See DESIGN.md §8 for the job lifecycle state machine and manifest
schema.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from .. import telemetry
from ..errors import CampaignError, SimulationTimeout, WorkerCrashed
from ..storage import (atomic_write_bytes, atomic_write_json,
                       atomic_write_text, digest_text)
from .jobs import (JobRecord, JobSpec, JobStatus, KIND_EXPERIMENT,
                   KIND_SELFTEST, experiment_jobs, specs_from_payload)
from .manifest import MANIFEST_NAME, RunManifest, list_campaigns
from .watchdog import BatchHandle, Watchdog, WorkerHandle
from .worker import batch_main, execute_job, is_transient, worker_main

__all__ = [
    "BatchHandle",
    "CampaignRunner",
    "ChaosMonkey",
    "JobRecord",
    "JobSpec",
    "JobStatus",
    "KIND_EXPERIMENT",
    "KIND_SELFTEST",
    "MANIFEST_NAME",
    "RunManifest",
    "Watchdog",
    "WorkerHandle",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "batch_main",
    "digest_text",
    "execute_job",
    "experiment_jobs",
    "is_transient",
    "list_campaigns",
    "new_campaign_id",
    "run_campaign",
    "specs_from_payload",
]

#: chaos modes the runner understands
CHAOS_KILL_WORKER = "kill-worker"


#: process-local sequence folded into generated ids so two campaigns
#: created in the same wall-clock second by the same process never
#: collide (the pid component covers concurrent submitters)
_ID_SEQUENCE = itertools.count()


def new_campaign_id(prefix: str = "campaign") -> str:
    """A sortable, human-readable, **collision-safe** campaign id.

    The wall-clock stamp has second granularity, so two campaigns (or
    two shards) starting concurrently used to race for the same run
    directory; the pid + process-local counter suffix makes the id
    unique across processes and within one.  Nothing downstream may
    depend on the id for reproducibility: artifact digests are content
    digests (:func:`digest_text`) and the aggregate digest of the
    campaign service excludes the campaign id entirely.
    """
    stamp = time.strftime("%Y%m%d-%H%M%S")
    unique = f"p{os.getpid()}c{next(_ID_SEQUENCE)}"
    return f"{prefix}-{stamp}-{unique}-{random.randrange(16**4):04x}"


@dataclass
class ChaosMonkey:
    """Deterministically SIGKILLs random in-flight workers, then
    interrupts the campaign — the failure drill ``--resume`` must
    recover from."""

    mode: str = CHAOS_KILL_WORKER
    #: workers to kill before declaring the campaign interrupted
    kills: int = 1
    #: minimum campaign age before the first kill, seconds (lets some
    #: jobs finish so resume has COMPLETED entries to skip)
    delay_s: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode != CHAOS_KILL_WORKER:
            raise CampaignError(
                f"unknown chaos mode {self.mode!r}; "
                f"known: {CHAOS_KILL_WORKER}")
        self._rng = random.Random(f"chaos:{self.seed}")
        self._killed = 0

    @property
    def exhausted(self) -> bool:
        return self._killed >= self.kills

    def maybe_kill(self, inflight: List[WorkerHandle],
                   campaign_age: float) -> Optional[WorkerHandle]:
        """Pick and SIGKILL a victim worker, or None this tick."""
        if self.exhausted or campaign_age < self.delay_s or not inflight:
            return None
        victim = self._rng.choice(inflight)
        victim.kill()
        self._killed += 1
        return victim


class CampaignRunner:
    """Drives a :class:`RunManifest` to completion with subprocess
    workers, a watchdog, retries, and checkpointing."""

    def __init__(self, manifest: RunManifest, *,
                 max_workers: int = 2,
                 stall_timeout: float = 10.0,
                 backoff_base: float = 0.25,
                 backoff_cap: float = 4.0,
                 poll_interval: float = 0.02,
                 chaos: Optional[ChaosMonkey] = None,
                 vectorize: int = 1,
                 on_event: Optional[Callable[[str, str], None]] = None,
                 on_transition: Optional[Callable[[JobRecord],
                                                  None]] = None):
        if max_workers < 1:
            raise CampaignError("max_workers must be >= 1")
        if vectorize < 1:
            raise CampaignError("vectorize must be >= 1")
        if vectorize > 1 and chaos is not None:
            # Chaos drills model one box dying mid-job; a batch dying
            # is N boxes.  Keep the failure-injection semantics simple:
            # chaos campaigns run solo workers.
            raise CampaignError(
                "vectorize > 1 is incompatible with chaos mode")
        self.manifest = manifest
        self.max_workers = max_workers
        self.vectorize = vectorize
        self.watchdog = Watchdog(stall_timeout=stall_timeout)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.poll_interval = poll_interval
        self.chaos = chaos
        self._on_event = on_event
        #: structured hook fired after every persisted job state
        #: transition — the shard engine streams these to the campaign
        #: service for live cross-shard progress accounting
        self._on_transition = on_transition
        self._backoff_rng = random.Random(
            f"backoff:{manifest.campaign_id}")
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:              # pragma: no cover - non-POSIX
            self._ctx = multiprocessing.get_context("spawn")
        self._inflight: Dict[str, WorkerHandle] = {}
        self._batches: Dict[str, BatchHandle] = {}
        self._batch_sequence = itertools.count()

    # ------------------------------------------------------------------
    def _event(self, job_id: str, message: str) -> None:
        if self._on_event is not None:
            self._on_event(job_id, message)

    def _transition(self, record: JobRecord) -> None:
        if self._on_transition is not None:
            self._on_transition(record)

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with full jitter, seconds."""
        ceiling = min(self.backoff_cap,
                      self.backoff_base * (2 ** max(0, attempt - 1)))
        return ceiling * (0.5 + 0.5 * self._backoff_rng.random())

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _launch(self, record: JobRecord) -> None:
        attempt = record.attempts + 1
        heartbeat = self._ctx.Value("d", 0.0, lock=False)
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(record.spec.to_dict(), attempt, send_conn, heartbeat),
            name=f"repro-job-{record.job_id}",
            daemon=True,
        )
        process.start()
        send_conn.close()
        record.status = JobStatus.RUNNING
        self.manifest.save()
        self._inflight[record.job_id] = WorkerHandle(
            spec=record.spec, attempt=attempt, process=process,
            conn=recv_conn, heartbeat=heartbeat)
        telemetry.count("runner.job.launches")
        self._event(record.job_id, f"attempt {attempt} started "
                                   f"(pid {process.pid})")

    def _retry_or_fail(self, record: JobRecord, status: JobStatus,
                       message: str, *, transient: bool) -> None:
        record.attempts += 1
        record.error = message
        if transient and record.attempts_left() > 0:
            delay = self._backoff(record.attempts)
            record.status = JobStatus.PENDING
            record.eligible_at = time.monotonic() + delay
            telemetry.count("runner.job.retries")
            self._event(record.job_id,
                        f"{status.value.lower()} ({message}); retrying "
                        f"in {delay:.2f}s "
                        f"({record.attempts_left()} attempts left)")
        else:
            record.status = status
            telemetry.count(f"runner.job.{status.value.lower()}")
            self._event(record.job_id, f"{status.value} ({message})")
        self.manifest.save()
        self._transition(record)

    def _complete(self, record: JobRecord, output: str, duration: float,
                  counters: Optional[Dict[str, int]] = None) -> None:
        artifact = Path("artifacts") / f"{record.job_id}.txt"
        atomic_write_text(self.manifest.directory / artifact, output)
        record.attempts += 1
        record.status = JobStatus.COMPLETED
        record.duration_s = duration
        record.digest = digest_text(output)
        record.artifact = str(artifact)
        record.error = ""
        record.counters = dict(counters or {})
        self.manifest.save()
        telemetry.count("runner.job.completed")
        self._event(record.job_id,
                    f"COMPLETED in {duration:.2f}s "
                    f"(digest {record.digest[:12]})")
        self._transition(record)

    def _finalize(self, handle: WorkerHandle) -> None:
        """The worker delivered a message or died; settle the record."""
        record = self.manifest.jobs[handle.job_id]
        message = None
        try:
            if handle.conn.poll(0):
                message = handle.conn.recv()
        except (EOFError, OSError):
            message = None
        handle.process.join(timeout=5.0)
        try:
            handle.conn.close()
        except OSError:
            pass
        del self._inflight[handle.job_id]

        if message is None:
            exitcode = handle.process.exitcode
            crash = WorkerCrashed(
                f"worker for {handle.job_id!r} died without a result "
                f"(exit code {exitcode})", exitcode=exitcode)
            self._retry_or_fail(record, JobStatus.CRASHED, str(crash),
                                transient=True)
            return
        kind = message[0]
        if kind == "ok":
            # Pre-telemetry workers sent 3-tuples; current ones append
            # the counter snapshot.
            _, output, duration = message[:3]
            counters = message[3] if len(message) > 3 else None
            self._complete(record, output, duration, counters)
            return
        _, error, text, transient, _duration = message
        timed_out = isinstance(error, SimulationTimeout) and \
            getattr(error, "deadline", False)
        status = JobStatus.TIMED_OUT if timed_out else JobStatus.FAILED
        self._retry_or_fail(record, status, text, transient=transient)

    def _finalize_closed_pipe(self, handle: WorkerHandle) -> None:
        """The result pipe is gone: no message can ever arrive, so the
        attempt is settled as a crash *now* — even if the process is
        still alive (wedged), waiting out the watchdog budget would buy
        nothing."""
        was_alive = handle.alive()
        handle.kill()
        del self._inflight[handle.job_id]
        record = self.manifest.jobs[handle.job_id]
        detail = ("result pipe closed with the worker still alive"
                  if was_alive else "result pipe closed")
        crash = WorkerCrashed(
            f"worker for {handle.job_id!r} lost its result pipe "
            f"({detail})", exitcode=handle.process.exitcode)
        self._retry_or_fail(record, JobStatus.CRASHED, str(crash),
                            transient=True)

    def _kill_timed_out(self, handle: WorkerHandle,
                        reason: str) -> None:
        handle.kill()
        del self._inflight[handle.job_id]
        record = self.manifest.jobs[handle.job_id]
        telemetry.count("runner.watchdog.kills")
        self._retry_or_fail(record, JobStatus.TIMED_OUT,
                            f"watchdog: {reason}", transient=True)

    # ------------------------------------------------------------------
    # batch workers (--vectorize)
    # ------------------------------------------------------------------
    def _launch_batch(self, records: List[JobRecord]) -> None:
        attempts = {record.job_id: record.attempts + 1
                    for record in records}
        heartbeat = self._ctx.Value("d", 0.0, lock=False)
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        batch_id = f"batch-{next(self._batch_sequence)}"
        process = self._ctx.Process(
            target=batch_main,
            args=([record.spec.to_dict() for record in records],
                  [attempts[record.job_id] for record in records],
                  send_conn, heartbeat),
            name=f"repro-{batch_id}",
            daemon=True,
        )
        process.start()
        send_conn.close()
        for record in records:
            record.status = JobStatus.RUNNING
        self.manifest.save()
        self._batches[batch_id] = BatchHandle(
            specs=[record.spec for record in records],
            attempts=attempts, process=process, conn=recv_conn,
            heartbeat=heartbeat)
        telemetry.count("runner.batch.launches")
        telemetry.count("runner.job.launches", len(records))
        self._event(batch_id,
                    f"batch of {len(records)} started (pid "
                    f"{process.pid}): "
                    f"{', '.join(r.job_id for r in records)}")

    def _settle_batch_message(self, handle: BatchHandle,
                              message) -> None:
        job_id = message[0]
        if job_id not in handle.pending:
            return                          # duplicate/unknown: ignore
        handle.pending.discard(job_id)
        record = self.manifest.jobs[job_id]
        if message[1] == "ok":
            _, _, output, duration, counters = message
            self._complete(record, output, duration, counters)
            return
        _, _, error, text, transient, _duration = message
        timed_out = isinstance(error, SimulationTimeout) and \
            getattr(error, "deadline", False)
        status = JobStatus.TIMED_OUT if timed_out else JobStatus.FAILED
        self._retry_or_fail(record, status, text, transient=transient)

    def _drain_batch(self, handle: BatchHandle) -> bool:
        """Settle every message currently in the batch pipe.  Returns
        False when the pipe is gone (no more messages can arrive)."""
        try:
            while handle.conn.poll(0):
                self._settle_batch_message(handle, handle.conn.recv())
        except (EOFError, OSError):
            return False
        return True

    def _retire_batch(self, batch_id: str, handle: BatchHandle,
                      reason: Optional[str]) -> None:
        """Reap a finished/dead/overdue batch worker; everything still
        pending retries (all-unfinished-retry)."""
        handle.kill()
        del self._batches[batch_id]
        if not handle.pending:
            return
        telemetry.count("runner.batch.interrupted")
        for job_id in sorted(handle.pending):
            record = self.manifest.jobs[job_id]
            if reason is not None:
                telemetry.count("runner.watchdog.kills")
                self._retry_or_fail(record, JobStatus.TIMED_OUT,
                                    f"watchdog: {reason}",
                                    transient=True)
            else:
                exitcode = handle.process.exitcode
                crash = WorkerCrashed(
                    f"batch worker for {job_id!r} died without a "
                    f"result (exit code {exitcode})", exitcode=exitcode)
                self._retry_or_fail(record, JobStatus.CRASHED,
                                    str(crash), transient=True)

    def _settle_batches(self, now: float) -> None:
        for batch_id, handle in list(self._batches.items()):
            pipe_open = self._drain_batch(handle)
            if not handle.pending:
                self._retire_batch(batch_id, handle, None)
                continue
            if not pipe_open or not handle.alive():
                # Give a just-exited worker's final messages one more
                # drain before declaring the rest crashed.
                self._drain_batch(handle)
                self._retire_batch(batch_id, handle, None)
                continue
            reason = self.watchdog.overdue_batch(handle, now)
            if reason is not None:
                self._retire_batch(batch_id, handle, reason)

    def _batched_job_ids(self) -> set:
        busy = set()
        for handle in self._batches.values():
            busy.update(spec.job_id for spec in handle.specs)
        return busy

    # ------------------------------------------------------------------
    # chaos interruption
    # ------------------------------------------------------------------
    def _interrupt(self, chaos_victim: WorkerHandle) -> None:
        """A chaos kill interrupts the whole campaign, the way a real
        box dies: the victim's interrupted attempt is accounted through
        :meth:`_retry_or_fail` exactly like an ordinary worker crash
        (attempt counted, retry/backoff policy applied), every other
        in-flight job rolls back to PENDING (their interrupted attempt
        never reported), and the manifest is flagged for resume."""
        victim_record = self.manifest.jobs[chaos_victim.job_id]
        del self._inflight[chaos_victim.job_id]
        telemetry.count("runner.chaos.kills")
        self._event(chaos_victim.job_id, "chaos: worker SIGKILLed")
        self._retry_or_fail(victim_record, JobStatus.CRASHED,
                            "chaos: worker SIGKILLed mid-campaign",
                            transient=True)
        for handle in list(self._inflight.values()):
            handle.kill()
            record = self.manifest.jobs[handle.job_id]
            record.status = JobStatus.PENDING
            record.eligible_at = 0.0
            del self._inflight[handle.job_id]
        self.manifest.interrupted = True
        self.manifest.save()

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _launch_pass(self, now: float) -> None:
        """Launch runnable jobs up to the worker limit."""
        if self.vectorize > 1:
            self._launch_batch_pass(now)
            return
        for record in self.manifest.records():
            if len(self._inflight) >= self.max_workers:
                break
            if record.job_id in self._inflight:
                continue
            if record.runnable(now):
                self._launch(record)

    def _launch_batch_pass(self, now: float) -> None:
        """Launch runnable jobs in batches of up to ``vectorize``; a
        batch occupies one worker slot."""
        busy = self._batched_job_ids()
        while len(self._batches) < self.max_workers:
            batch: List[JobRecord] = []
            for record in self.manifest.records():
                if len(batch) >= self.vectorize:
                    break
                if record.job_id in busy:
                    continue
                if record.runnable(now):
                    batch.append(record)
            if not batch:
                return
            self._launch_batch(batch)
            busy.update(record.job_id for record in batch)

    def _settle_pass(self, now: float) -> None:
        """Settle finished, pipe-less, and overdue workers."""
        self._settle_batches(now)
        for handle in list(self._inflight.values()):
            try:
                has_message = handle.conn.poll(0)
            except OSError:
                # The pipe is closed (chaos kill, or the worker's end
                # died) — no result can ever arrive, so finalize as a
                # crash immediately rather than waiting for the
                # process to die or the watchdog budget to expire.
                self._finalize_closed_pipe(handle)
                continue
            if has_message or not handle.alive():
                self._finalize(handle)
                continue
            reason = self.watchdog.overdue(handle, now)
            if reason is not None:
                self._kill_timed_out(handle, reason)

    def run(self) -> RunManifest:
        """Drive every runnable job to a terminal state (or until a
        chaos interruption).  Returns the (saved) manifest."""
        manifest = self.manifest
        manifest.save()
        started = time.monotonic()
        try:
            while True:
                now = time.monotonic()
                self._launch_pass(now)
                self._settle_pass(now)
                # ----- chaos -------------------------------------------
                if self.chaos is not None and not self.chaos.exhausted:
                    victim = self.chaos.maybe_kill(
                        list(self._inflight.values()), now - started)
                    if victim is not None and self.chaos.exhausted:
                        # The final kill takes the whole campaign down,
                        # the way a real box dies mid-run.
                        self._interrupt(victim)
                        return manifest
                    # Earlier kills are ordinary worker crashes: the
                    # next settle pass reaps them as CRASHED and the
                    # retry policy takes over.
                # ----- done? -------------------------------------------
                if not self._inflight and not self._batches:
                    waiting = [r for r in manifest.records()
                               if r.status is JobStatus.PENDING]
                    if not waiting:
                        break
                    wake = min(r.eligible_at for r in waiting)
                    time.sleep(max(self.poll_interval,
                                   min(wake - time.monotonic(),
                                       self.backoff_cap)))
                    continue
                time.sleep(self.poll_interval)
        finally:
            for handle in list(self._inflight.values()):
                handle.kill()
            self._inflight.clear()
            for batch in list(self._batches.values()):
                batch.kill()
            self._batches.clear()
            manifest.save()
        return manifest


# ----------------------------------------------------------------------
# convenience entry point (CLI + tests)
# ----------------------------------------------------------------------
def run_campaign(specs: List[JobSpec], runs_dir, *,
                 campaign_id: Optional[str] = None,
                 seed: Optional[int] = None,
                 resume: bool = False,
                 max_workers: int = 2,
                 stall_timeout: float = 10.0,
                 chaos: Optional[ChaosMonkey] = None,
                 vectorize: int = 1,
                 backoff_base: float = 0.25,
                 backoff_cap: float = 4.0,
                 on_event: Optional[Callable[[str, str], None]] = None
                 ) -> RunManifest:
    """Create (or resume) a campaign and run it to completion.

    On ``resume=True`` the manifest is loaded from
    ``runs_dir/campaign_id`` and ``specs`` is ignored — the campaign
    re-runs exactly what it recorded, skipping COMPLETED jobs.
    ``vectorize > 1`` batches that many jobs per worker process
    (amortizing fork/import/warm-up); results, artifacts and digests
    are byte-identical to solo workers.
    """
    runs_dir = Path(runs_dir)
    if resume:
        if campaign_id is None:
            raise CampaignError("resume requires a campaign id")
        manifest = RunManifest.load(runs_dir, campaign_id)
        manifest.reset_for_resume()
    else:
        campaign_id = campaign_id or new_campaign_id()
        if (runs_dir / campaign_id / MANIFEST_NAME).exists():
            raise CampaignError(
                f"campaign {campaign_id!r} already exists under "
                f"{runs_dir}; use resume")
        manifest = RunManifest.create(
            campaign_id, runs_dir, specs=specs, seed=seed,
            created=time.strftime("%Y-%m-%dT%H:%M:%S"))
    runner = CampaignRunner(
        manifest, max_workers=max_workers, stall_timeout=stall_timeout,
        backoff_base=backoff_base, backoff_cap=backoff_cap,
        chaos=chaos, vectorize=vectorize, on_event=on_event)
    return runner.run()
