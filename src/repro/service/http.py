"""Stdlib-only HTTP/JSON front end for the sharded campaign service.

``repro serve`` runs one :class:`ServiceServer`: a
``ThreadingHTTPServer`` for the API plus a single scheduler thread
that drains a **bounded** submission queue.  Endpoints:

* ``GET  /health`` — liveness + queue occupancy;
* ``GET  /healthz`` — kubernetes-style liveness: always ``200`` while
  the process serves, with breaker/quarantine state in the body;
* ``GET  /readyz`` — readiness: ``503`` while the scheduler is
  quarantining shards (re-homing work after a circuit breaker trip),
  ``200`` otherwise;
* ``POST /campaigns`` — submit a job payload; ``202`` with the
  campaign id, or ``429`` (:class:`repro.errors.AdmissionRejected`)
  when the queue is full — the service *rejects* rather than buffering
  unboundedly — or ``503`` while quarantining (load shedding).
  Submissions may carry an idempotency key (``"idempotency_key"`` in
  the payload or an ``Idempotency-Key`` header); the campaign id is
  then *derived* from the key, so a retried submit — even against a
  restarted server — returns the existing campaign (``"duplicate":
  true``) instead of spawning a second one;
* ``GET  /campaigns`` — list known campaigns;
* ``GET  /campaigns/<id>`` — live status snapshot (includes shard
  process-group ids while running — the chaos smoke drill targets
  them) or the persisted terminal state;
* ``GET  /campaigns/<id>/results`` — the merged aggregate, ``409``
  until the campaign reaches a terminal state;
* ``POST /campaigns/<id>/resume`` — enqueue a resume of an
  interrupted/degraded campaign.

Memory stays bounded under a sustained over-capacity submit loop: a
submission is partitioned and persisted to disk *at admission time*,
so the queue holds only campaign-id strings, and finished-campaign
status is answered from disk, never from an ever-growing cache.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from .. import telemetry
from ..errors import AdmissionRejected, CampaignError, ServiceError
from ..storage import read_json
from ..runner.jobs import specs_from_payload
from .scheduler import (CAMPAIGN_QUEUED, SERVICE_MANIFEST_NAME,
                        TERMINAL_STATES, CampaignService,
                        ServiceManifest, create_service_campaign,
                        list_service_campaigns,
                        resume_service_campaign)

#: refuse request bodies above this size outright (HTTP 413)
MAX_BODY_BYTES = 1 << 20

#: default bound on queued campaigns (submissions beyond it get 429)
DEFAULT_QUEUE_DEPTH = 8


class ServiceServer:
    """The campaign service process: HTTP front end + scheduler."""

    def __init__(self, runs_dir, *, host: str = "127.0.0.1",
                 port: int = 0,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 options: Optional[Dict[str, object]] = None,
                 on_event: Optional[Callable[[str, str],
                                             None]] = None):
        if queue_depth < 1:
            raise ServiceError("queue_depth must be >= 1")
        self.runs_dir = Path(runs_dir)
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        self.queue_depth = queue_depth
        self.default_options = dict(options or {})
        self._on_event = on_event
        self._lock = threading.Lock()
        #: (campaign_id, resume?) — ids only; payloads live on disk
        self._pending: deque = deque()
        self._queued_ids: set = set()
        self._current: Optional[CampaignService] = None
        self._current_id: Optional[str] = None
        self._finished = 0
        self._stop = threading.Event()
        self._httpd = _ServiceHTTPServer((host, port), _Handler)
        self._httpd.service = self
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http", daemon=True)
        self._scheduler_thread = threading.Thread(
            target=self._scheduler_loop,
            name="repro-serve-scheduler", daemon=True)

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        self._http_thread.start()
        self._scheduler_thread.start()

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: the running campaign checkpoints as
        INTERRUPTED (resumable), queued submissions stay on disk."""
        self._stop.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        self._scheduler_thread.join(timeout=timeout)

    def wait(self) -> None:
        """Block until :meth:`stop` is called (signal handlers)."""
        while not self._stop.wait(0.2):
            pass
        self._scheduler_thread.join(timeout=30.0)

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    @property
    def shedding(self) -> bool:
        """True while the running campaign's scheduler is quarantining
        shards — the window in which new submissions are shed (503)
        rather than piled onto a service that is busy re-homing work."""
        with self._lock:
            current = self._current
        return current is not None and current.quarantining

    @staticmethod
    def idempotent_campaign_id(key: str) -> str:
        """The campaign id an idempotency key maps to.

        Deriving the id from the key (instead of keeping a lookup
        table) makes deduplication crash-proof: the persisted campaign
        directory *is* the index, so a retried submit after a server
        restart still finds its original campaign.
        """
        digest = hashlib.sha256(str(key).encode("utf-8")).hexdigest()
        return f"idem-{digest[:20]}"

    def submit(self, payload: Dict[str, object]
               ) -> Tuple[str, bool]:
        """Admit a campaign submission.

        Returns ``(campaign_id, duplicate)``; raises
        :class:`AdmissionRejected` when the bounded queue is full.  A
        payload carrying ``idempotency_key`` (and no explicit
        ``campaign_id``) deduplicates: the retry of an already-admitted
        submission returns the existing campaign id with
        ``duplicate=True`` instead of spawning a second campaign.
        """
        specs = specs_from_payload(payload)
        seed = payload.get("seed")
        if seed is not None:
            seed = int(seed)
        shards = int(payload.get("shards", 2))
        options = {**self.default_options,
                   **dict(payload.get("options", {}) or {})}
        campaign_id = payload.get("campaign_id")
        idempotent = False
        if not campaign_id and payload.get("idempotency_key"):
            campaign_id = self.idempotent_campaign_id(
                str(payload["idempotency_key"]))
            idempotent = True
        with self._lock:
            if idempotent:
                cid = str(campaign_id)
                exists = (cid == self._current_id
                          or cid in self._queued_ids
                          or (self.runs_dir / cid /
                              SERVICE_MANIFEST_NAME).is_file())
                if exists:
                    telemetry.count("service.http.deduplicated")
                    return cid, True
            if len(self._pending) >= self.queue_depth:
                telemetry.count("service.http.rejected")
                raise AdmissionRejected(
                    f"submission queue full "
                    f"({len(self._pending)}/{self.queue_depth})",
                    queue_depth=self.queue_depth,
                    pending=len(self._pending))
            try:
                manifest = create_service_campaign(
                    specs, self.runs_dir,
                    campaign_id=(str(campaign_id) if campaign_id
                                 else None),
                    seed=seed, shards=shards, options=options)
            except ServiceError:
                if idempotent:
                    # Lost the race with an identical retry: the
                    # campaign already exists on disk, which is
                    # exactly what idempotency promises.
                    telemetry.count("service.http.deduplicated")
                    return str(campaign_id), True
                raise
            self._pending.append((manifest.campaign_id, False))
            self._queued_ids.add(manifest.campaign_id)
        telemetry.count("service.http.submitted")
        return manifest.campaign_id, False

    def enqueue_resume(self, campaign_id: str) -> None:
        with self._lock:
            if campaign_id == self._current_id or \
                    campaign_id in self._queued_ids:
                raise ServiceError(
                    f"campaign {campaign_id!r} is already "
                    f"queued or running")
            if len(self._pending) >= self.queue_depth:
                telemetry.count("service.http.rejected")
                raise AdmissionRejected(
                    f"submission queue full "
                    f"({len(self._pending)}/{self.queue_depth})",
                    queue_depth=self.queue_depth,
                    pending=len(self._pending))
            # raises ServiceError if the campaign does not exist
            ServiceManifest.load(self.runs_dir, campaign_id)
            self._pending.append((campaign_id, True))
            self._queued_ids.add(campaign_id)

    # ------------------------------------------------------------------
    # scheduler thread
    # ------------------------------------------------------------------
    def _scheduler_loop(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                if not self._pending:
                    item = None
                else:
                    item = self._pending.popleft()
            if item is None:
                self._stop.wait(0.05)
                continue
            campaign_id, resume = item
            try:
                if resume:
                    manifest = resume_service_campaign(
                        self.runs_dir, campaign_id)
                else:
                    manifest = ServiceManifest.load(
                        self.runs_dir, campaign_id)
                service = CampaignService(
                    manifest, stop_event=self._stop,
                    on_event=self._on_event)
                with self._lock:
                    self._current = service
                    self._current_id = campaign_id
                    self._queued_ids.discard(campaign_id)
                service.run()
            except Exception as error:  # noqa: BLE001 - keep serving
                telemetry.count("service.http.campaign_errors")
                if self._on_event is not None:
                    self._on_event(campaign_id,
                                   f"campaign error: {error}")
            finally:
                with self._lock:
                    self._current = None
                    self._current_id = None
                    self._queued_ids.discard(campaign_id)
                    self._finished += 1

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        with self._lock:
            return {
                "status": "ok",
                "queued": len(self._pending),
                "queue_depth": self.queue_depth,
                "running": self._current_id,
                "finished": self._finished,
                "runs_dir": str(self.runs_dir),
            }

    def healthz(self) -> Dict[str, object]:
        """Liveness + breaker/quarantine state (always HTTP 200: the
        process is alive as long as it can answer)."""
        payload = self.health()
        with self._lock:
            current = self._current
        quarantined = 0
        strikes = 0
        if current is not None:
            snapshot = current.status_snapshot()
            shards = snapshot.get("shards", {})
            if isinstance(shards, dict):
                for shard in shards.values():
                    strikes += int(shard.get("strikes", 0))
                    if shard.get("status") == "QUARANTINED":
                        quarantined += 1
        payload.update({
            "quarantined_shards": quarantined,
            "breaker_strikes": strikes,
            "shedding": self.shedding,
        })
        return payload

    def readyz(self) -> Tuple[int, Dict[str, object]]:
        """Readiness: 503 while the scheduler is quarantining shards
        (submissions would be shed anyway), 200 otherwise."""
        if self.shedding:
            return 503, {"ready": False,
                         "reason": "scheduler is quarantining shards"}
        return 200, {"ready": True}

    def campaigns(self) -> Dict[str, object]:
        return {"campaigns": list_service_campaigns(self.runs_dir)}

    def campaign_status(self, campaign_id: str) -> Dict[str, object]:
        with self._lock:
            if campaign_id == self._current_id and \
                    self._current is not None:
                return self._current.status_snapshot()
            queued = campaign_id in self._queued_ids
        manifest = ServiceManifest.load(self.runs_dir, campaign_id)
        status = CAMPAIGN_QUEUED if queued else manifest.status
        payload: Dict[str, object] = {
            "campaign_id": campaign_id,
            "status": status,
            "seed": manifest.seed,
            "shards": {shard_id: {
                "status": entry.status,
                "strikes": entry.strikes,
                "restarts": entry.restarts,
                "origin": entry.origin,
                "jobs": len(entry.jobs),
                "pgid": None,
            } for shard_id, entry in manifest.shards.items()},
            "total_jobs": len(manifest.job_ids()),
            "lost": {shard: list(jobs)
                     for shard, jobs in manifest.lost.items()},
        }
        if manifest.aggregate_path.exists():
            payload["digest"] = read_json(
                manifest.aggregate_path).get("digest")
        return payload

    def campaign_results(self, campaign_id: str
                         ) -> Tuple[int, Dict[str, object]]:
        manifest = ServiceManifest.load(self.runs_dir, campaign_id)
        if manifest.status in TERMINAL_STATES and \
                manifest.aggregate_path.exists():
            return 200, read_json(manifest.aggregate_path)
        return 409, {"error": "campaign not finished",
                     "status": manifest.status}


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: ServiceServer


class _Handler(BaseHTTPRequestHandler):
    server: _ServiceHTTPServer
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass                               # keep the service quiet

    def _shed(self) -> None:
        telemetry.count("service.http.shed")
        self._reply(503, {"error": "scheduler is quarantining "
                                   "shards; retry with backoff",
                          "shedding": True})

    def _reply(self, code: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Optional[Dict[str, object]]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            # drain in small chunks (never buffering the oversized
            # body) so the client can finish sending and read the 413
            remaining = length
            while remaining > 0:
                chunk = self.rfile.read(min(65536, remaining))
                if not chunk:
                    break
                remaining -= len(chunk)
            self.close_connection = True
            self._reply(413, {"error": "payload too large",
                              "limit": MAX_BODY_BYTES})
            return None
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._reply(400, {"error": "body is not valid JSON"})
            return None
        if not isinstance(payload, dict):
            self._reply(400, {"error": "body must be a JSON object"})
            return None
        return payload

    # ------------------------------------------------------------------
    def do_GET(self) -> None:                    # noqa: N802
        service = self.server.service
        parts = [part for part in self.path.split("?")[0].split("/")
                 if part]
        try:
            if parts == ["health"]:
                self._reply(200, service.health())
            elif parts == ["healthz"]:
                self._reply(200, service.healthz())
            elif parts == ["readyz"]:
                code, payload = service.readyz()
                self._reply(code, payload)
            elif parts == ["campaigns"]:
                self._reply(200, service.campaigns())
            elif len(parts) == 2 and parts[0] == "campaigns":
                self._reply(200, service.campaign_status(parts[1]))
            elif len(parts) == 3 and parts[0] == "campaigns" and \
                    parts[2] == "results":
                code, payload = service.campaign_results(parts[1])
                self._reply(code, payload)
            else:
                self._reply(404, {"error": f"no route {self.path!r}"})
        except ServiceError as error:
            self._reply(404, {"error": str(error)})
        except Exception as error:  # noqa: BLE001 - never kill handler
            self._reply(500, {"error": str(error)})

    def do_POST(self) -> None:                   # noqa: N802
        service = self.server.service
        parts = [part for part in self.path.split("?")[0].split("/")
                 if part]
        try:
            if parts == ["campaigns"]:
                payload = self._read_body()
                if payload is None:
                    return
                header_key = self.headers.get("Idempotency-Key")
                if header_key and "idempotency_key" not in payload:
                    payload["idempotency_key"] = header_key
                if service.shedding:
                    self._shed()
                    return
                campaign_id, duplicate = service.submit(payload)
                if duplicate:
                    self._reply(200, {"campaign_id": campaign_id,
                                      "duplicate": True})
                else:
                    self._reply(202, {"campaign_id": campaign_id,
                                      "duplicate": False,
                                      "status": CAMPAIGN_QUEUED})
            elif len(parts) == 3 and parts[0] == "campaigns" and \
                    parts[2] == "resume":
                if service.shedding:
                    self._shed()
                    return
                service.enqueue_resume(parts[1])
                self._reply(202, {"campaign_id": parts[1],
                                  "status": CAMPAIGN_QUEUED})
            else:
                self._reply(404, {"error": f"no route {self.path!r}"})
        except AdmissionRejected as error:
            self._reply(429, {"error": str(error), "rejected": True,
                              "queue_depth": error.queue_depth,
                              "pending": error.pending})
        except (ServiceError, CampaignError) as error:
            self._reply(400, {"error": str(error)})
        except Exception as error:  # noqa: BLE001 - never kill handler
            self._reply(500, {"error": str(error)})
