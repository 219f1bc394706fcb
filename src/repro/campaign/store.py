"""On-disk campaign artifacts.

A campaign directory is self-describing::

    <out_dir>/
      manifest.json      # spec, code version, per-run status/timings/violations
      runs/<run_id>.jsonl  # one canonical JSON object per result row
      csv/<run_id>.csv     # the same rows for spreadsheet consumption
      <plane>/<run_id>-<i>.<plane>.jsonl  # per armed plane (telemetry,
                                          # trace): one per fabric booted

The manifest is rewritten atomically after every run completion, so an
interrupted campaign (ctrl-C, OOM, power) can always be ``resume``\\ d:
runs recorded as ``ok`` by the same code version whose row file reads
back are skipped, everything else re-executes (and usually lands as a
cache hit anyway).
"""

import csv
import json
import os
import tempfile

from repro.artifact import ArtifactError, read_jsonl
from repro.experiments.result import ExperimentResult

MANIFEST_NAME = "manifest.json"
RUNS_DIR = "runs"
CSV_DIR = "csv"


def atomic_write(path, text):
    """Write ``text`` to ``path`` through a temporary file in the same
    directory, so a reader sees the old file or the new one, never half."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=".tmp-", suffix=os.path.basename(path)
    )
    with os.fdopen(fd, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)


class CampaignStore:
    """Reader/writer for one campaign directory."""

    def __init__(self, out_dir):
        self.out_dir = out_dir

    @property
    def manifest_path(self):
        return os.path.join(self.out_dir, MANIFEST_NAME)

    def run_jsonl_path(self, run_id):
        return os.path.join(self.out_dir, RUNS_DIR, run_id + ".jsonl")

    def run_csv_path(self, run_id):
        return os.path.join(self.out_dir, CSV_DIR, run_id + ".csv")

    def plane_dir(self, plane):
        """Where an armed plane's artifacts go (``plane`` is a hub name)."""
        return os.path.join(self.out_dir, plane)

    def write_run_artifacts(self, run_id, schema, rows):
        """Write the JSONL + CSV artifacts for one finished run."""
        jsonl_path = self.run_jsonl_path(run_id)
        atomic_write(jsonl_path, ExperimentResult(rows).to_jsonl())
        csv_path = self.run_csv_path(run_id)
        os.makedirs(os.path.dirname(csv_path), exist_ok=True)
        with open(csv_path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=schema)
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        return jsonl_path, csv_path

    def read_run_rows(self, run_id):
        """Rows from a run's JSONL artifact (None when missing or
        unreadable; a run with zero rows is an empty file, and valid)."""
        try:
            return read_jsonl(self.run_jsonl_path(run_id), empty_ok=True)
        except ArtifactError:
            return None

    def load_manifest(self):
        """The manifest dict, or None when this is a fresh directory."""
        try:
            with open(self.manifest_path) as handle:
                manifest = json.load(handle)
        except OSError:
            return None
        except ValueError:
            raise ValueError(
                "%s is not valid JSON -- refusing to treat %r as a campaign dir"
                % (self.manifest_path, self.out_dir)
            )
        if not isinstance(manifest, dict) or "runs" not in manifest:
            raise ValueError("%s does not look like a campaign manifest" % self.manifest_path)
        return manifest

    def save_manifest(self, manifest):
        atomic_write(self.manifest_path, json.dumps(manifest, indent=2, sort_keys=False) + "\n")

    def __repr__(self):
        return "CampaignStore(%r)" % self.out_dir
