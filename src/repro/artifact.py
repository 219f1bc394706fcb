"""JSONL artifacts: one writer, one reader, one error.

Every observability output of the simulator is a JSON Lines file --
telemetry (``repro-telemetry/1``) and trace (``repro-trace/1``)
artifacts, whose first record is a ``meta`` record naming the schema,
and the headerless pingmesh probe logs and packet captures.  They are
written with sorted keys, one record per line, and read back through
:func:`read_jsonl`, which answers anything that is not such a file with
one :class:`ArtifactError` naming the path and line -- so a CLI can
print ``path:line: reason`` and exit instead of dumping a traceback.
The validation lab's repro artifacts and a campaign's ``runs/*.jsonl``
row files are read through it too.
"""

import json
import os


class ArtifactError(Exception):
    """An artifact that cannot be read; ``str()`` is ``path:line: reason``.

    ``line`` is the 1-based line of the offending record, 0 when the
    file as a whole is the problem (missing, unreadable, empty).
    """

    def __init__(self, path, line, reason):
        super().__init__("%s:%d: %s" % (path, line, reason))
        self.path = path
        self.line = line
        self.reason = reason


def encode_line(record):
    """One record as its canonical JSONL line (sorted keys)."""
    return json.dumps(record, sort_keys=True) + "\n"


def write_jsonl(records, path):
    """Write a list of record dicts as JSON Lines; returns the path."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(encode_line(record))
    return path


def write_artifacts(record_lists, out_dir, stem, suffix):
    """Write one ``<stem>-<i>.<suffix>.jsonl`` per drained session.

    ``record_lists`` is what a hub's ``drain()`` returns (one record list
    per session, in boot order).  Returns the written paths -- empty, and
    ``out_dir`` untouched, when no session attached (e.g. a flowsim-only
    run that never boots a packet fabric).
    """
    paths = []
    for index, records in enumerate(record_lists):
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "%s-%d.%s.jsonl" % (stem, index, suffix))
        paths.append(write_jsonl(records, path))
    return paths


def read_jsonl(path, schema=None, empty_ok=False):
    """Load a JSONL file into a list of record dicts.

    With ``schema`` the first record must be the ``meta`` record of that
    schema.  A missing or unreadable file, an empty one (unless
    ``empty_ok``), a line that is not a JSON object (a truncated tail
    included) and a wrong or absent schema all raise
    :class:`ArtifactError`.
    """
    records = []
    try:
        with open(path, "rb") as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except (ValueError, RecursionError):
                    raise ArtifactError(
                        path, number, "not a JSON record (truncated or corrupt)"
                    ) from None
                if not isinstance(record, dict):
                    raise ArtifactError(path, number, "record is not a JSON object")
                if schema is not None and not records:
                    found = record.get("schema") if record.get("type") == "meta" else None
                    if found != schema:
                        raise ArtifactError(
                            path, number,
                            "expected a %s artifact, found %s"
                            % (schema, found or "no meta record"))
                records.append(record)
    except OSError as error:
        raise ArtifactError(path, 0, error.strerror or str(error)) from None
    if not records and not empty_ok:
        raise ArtifactError(path, 0, "empty artifact")
    return records
