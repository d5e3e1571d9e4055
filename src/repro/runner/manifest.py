"""The persisted campaign state: ``runs/<campaign-id>/manifest.json``.

The manifest is the single source of truth for checkpoint/resume.  It
is rewritten (atomically) after **every** job state transition, so a
SIGKILL of the whole campaign at any instant leaves a loadable
manifest whose COMPLETED entries can be trusted — their artifacts were
atomically renamed into place *before* the manifest recorded them.

Schema (``schema`` bumps on incompatible change)::

    {
      "schema": 2,
      "campaign_id": "...",
      "created": "2026-08-06T12:00:00",   # informational only
      "seed": 0,                          # campaign-level default seed
      "interrupted": false,               # a chaos/abort left work behind
      "shard_id": "",                     # v2: "" = unsharded campaign
      "parent": "",                       # v2: owning service campaign
      "jobs": { "<job_id>": JobRecord, ... }
    }

Schema v2 (the sharded campaign service, DESIGN.md §12) only *adds*
fields: ``shard_id`` names the shard this manifest belongs to and
``parent`` the service campaign that owns it.  The loader defaults
both for schema-v1 manifests written by the pre-service runner, so a
v1 campaign loads, resumes, and completes unchanged under the sharded
scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import CampaignError
from ..storage import checkpoint, load_checkpoint
from .jobs import JobRecord, JobSpec, JobStatus

SCHEMA_VERSION = 2
#: schemas the defaulting loader accepts (v1 = pre-service manifests)
SUPPORTED_SCHEMAS = (1, 2)
#: envelope schema tag on every journaled manifest checkpoint
SCHEMA_TAG = "repro.runner.manifest"

MANIFEST_NAME = "manifest.json"


@dataclass
class RunManifest:
    """All persisted state of one campaign."""

    campaign_id: str
    directory: Path
    created: str = ""
    seed: Optional[int] = None
    interrupted: bool = False
    #: shard this manifest belongs to ("" = standalone campaign)
    shard_id: str = ""
    #: service campaign owning this shard ("" = standalone campaign)
    parent: str = ""
    jobs: Dict[str, JobRecord] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction / persistence
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, campaign_id: str, runs_dir: Path, *,
               specs: List[JobSpec], seed: Optional[int],
               created: str = "", shard_id: str = "",
               parent: str = "") -> "RunManifest":
        directory = Path(runs_dir) / campaign_id
        manifest = cls(campaign_id=campaign_id, directory=directory,
                       created=created, seed=seed, shard_id=shard_id,
                       parent=parent)
        for spec in specs:
            if spec.job_id in manifest.jobs:
                raise CampaignError(
                    f"duplicate job id {spec.job_id!r}")
            manifest.jobs[spec.job_id] = JobRecord(spec=spec)
        return manifest

    @classmethod
    def load(cls, runs_dir: Path, campaign_id: str) -> "RunManifest":
        directory = Path(runs_dir) / campaign_id
        path = directory / MANIFEST_NAME
        try:
            # Journaled load: an interrupted checkpoint is replayed
            # from the WAL, a corrupted one quarantined and healed
            # (ArtifactCorrupt propagates when nothing recovers — the
            # service layer turns that into shard-loss accounting).
            payload = load_checkpoint(path, expect_schema=SCHEMA_TAG)
        except FileNotFoundError:
            raise CampaignError(
                f"no manifest for campaign {campaign_id!r} "
                f"under {runs_dir}") from None
        schema = payload.get("schema") \
            if isinstance(payload, dict) else None
        if schema not in SUPPORTED_SCHEMAS:
            raise CampaignError(
                f"manifest schema {schema!r} "
                f"not in supported {SUPPORTED_SCHEMAS}")
        manifest = cls(
            campaign_id=str(payload["campaign_id"]),
            directory=directory,
            created=str(payload.get("created", "")),
            seed=payload.get("seed"),
            interrupted=bool(payload.get("interrupted", False)),
            # v2 shard fields: defaulted for v1 manifests so pre-service
            # campaigns load and resume under the sharded scheduler
            shard_id=str(payload.get("shard_id", "")),
            parent=str(payload.get("parent", "")),
        )
        for job_id, record in payload["jobs"].items():
            manifest.jobs[job_id] = JobRecord.from_dict(record)
        return manifest

    @property
    def path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def save(self) -> None:
        payload = {
            "schema": SCHEMA_VERSION,
            "campaign_id": self.campaign_id,
            "created": self.created,
            "seed": self.seed,
            "interrupted": self.interrupted,
            "shard_id": self.shard_id,
            "parent": self.parent,
            "jobs": {job_id: record.to_dict()
                     for job_id, record in self.jobs.items()},
        }
        checkpoint(self.path, payload, SCHEMA_TAG)

    def add_specs(self, specs: List[JobSpec]) -> List[str]:
        """Append fresh PENDING jobs (the cross-shard reassignment
        path).  Specs whose job id already exists are skipped — a
        reassignment replayed on resume must stay idempotent."""
        added: List[str] = []
        for spec in specs:
            if spec.job_id in self.jobs:
                continue
            self.jobs[spec.job_id] = JobRecord(spec=spec)
            added.append(spec.job_id)
        return added

    # ------------------------------------------------------------------
    # resume semantics
    # ------------------------------------------------------------------
    def reset_for_resume(self) -> List[str]:
        """Make every non-COMPLETED job runnable again and return the
        ids that will re-run.  RUNNING entries are leftovers of a
        campaign process that died mid-flight — their workers are long
        gone, so they restart (without charging an extra attempt,
        since the interrupted attempt never reported a result)."""
        rerun: List[str] = []
        for record in self.jobs.values():
            if record.status is JobStatus.COMPLETED:
                continue
            record.status = JobStatus.PENDING
            record.attempts = 0          # fresh retry budget
            record.eligible_at = 0.0
            record.error = ""
            rerun.append(record.job_id)
        self.interrupted = False
        return rerun

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def records(self) -> List[JobRecord]:
        return list(self.jobs.values())

    def by_status(self, status: JobStatus) -> List[JobRecord]:
        return [r for r in self.jobs.values() if r.status is status]

    def all_completed(self) -> bool:
        return all(r.status is JobStatus.COMPLETED
                   for r in self.jobs.values())

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for record in self.jobs.values():
            out[record.status.value] = out.get(record.status.value,
                                               0) + 1
        return out

    def digests(self) -> Dict[str, str]:
        """job id -> result digest, for clean-vs-resumed comparisons."""
        return {job_id: record.digest
                for job_id, record in self.jobs.items()}


def list_campaigns(runs_dir: Path) -> List[str]:
    """Campaign ids with a manifest under ``runs_dir``, sorted."""
    runs_dir = Path(runs_dir)
    if not runs_dir.is_dir():
        return []
    return sorted(
        entry.name for entry in runs_dir.iterdir()
        if (entry / MANIFEST_NAME).is_file()
    )
