"""The ``BENCH_simulator.json`` report schema, and a dependency-free
validator.

The container has no ``jsonschema`` package, so the shape is expressed
as a small declarative spec interpreted by :func:`validate_report`.
``SCHEMA`` doubles as machine-readable documentation of the format; CI
and ``tests/test_bench.py`` both call the validator so a malformed
report fails loudly instead of silently rotting the perf trajectory.
"""

SCHEMA_ID = "repro-bench/1"

#: Required scalar fields of a per-scenario entry, name -> type(s).
SCENARIO_FIELDS = {
    "title": str,
    "paper_ref": str,
    "seed": int,
    "events": int,
    "dispatches": int,
    "packets": int,
    "sim_ns": int,
    "wall_s": (int, float),
    "wall_s_all": list,
    "events_per_sec": (int, float),
    "packets_per_sec": (int, float),
    "events_per_packet": (int, float),
    "fingerprint": str,
}

#: Required top-level fields, name -> type(s).  ``baseline`` may be None
#: (first run ever); ``comparison`` may be empty but must exist.
REPORT_FIELDS = {
    "schema": str,
    "generated_utc": str,
    "code_version": str,
    "python": str,
    "platform": str,
    "repeat": int,
    "scenarios": dict,
    "comparison": dict,
}

#: Documentation-shaped summary; the authoritative structure is
#: REPORT_FIELDS/SCENARIO_FIELDS above and docs/benchmarking.md.
SCHEMA = {
    "id": SCHEMA_ID,
    "report_fields": sorted(REPORT_FIELDS),
    "scenario_fields": sorted(SCENARIO_FIELDS),
}


class SchemaViolation(ValueError):
    """Raised when a report does not match the ``repro-bench/1`` shape."""


def _check(condition, message, *args):
    if not condition:
        raise SchemaViolation(message % args if args else message)


def validate_report(report):
    """Validate a report object against ``repro-bench/1``.

    Returns the report (for chaining); raises :class:`SchemaViolation`
    naming the first offending field otherwise.
    """
    _check(isinstance(report, dict), "report must be an object, got %s", type(report).__name__)
    for name, types in REPORT_FIELDS.items():
        _check(name in report, "report missing required field %r", name)
        _check(
            isinstance(report[name], types),
            "report field %r must be %s, got %s",
            name,
            types,
            type(report[name]).__name__,
        )
    _check(report["schema"] == SCHEMA_ID, "schema id %r != %r", report["schema"], SCHEMA_ID)
    _check("baseline" in report, "report missing required field 'baseline'")
    _check(
        report["baseline"] is None or isinstance(report["baseline"], dict),
        "report field 'baseline' must be an object or null",
    )
    _check(len(report["scenarios"]) > 0, "report has no scenarios")
    for name, entry in report["scenarios"].items():
        _check(isinstance(entry, dict), "scenario %r must be an object", name)
        for field, types in SCENARIO_FIELDS.items():
            _check(field in entry, "scenario %r missing field %r", name, field)
            _check(
                isinstance(entry[field], types) and not isinstance(entry[field], bool),
                "scenario %r field %r must be %s, got %r",
                name,
                field,
                types,
                entry[field],
            )
        _check(entry["wall_s"] > 0, "scenario %r wall_s must be positive", name)
        _check(entry["events"] > 0, "scenario %r fired no events", name)
        _check(
            len(entry["fingerprint"]) == 16,
            "scenario %r fingerprint must be a 16-hex-char digest",
            name,
        )
    for name, row in report["comparison"].items():
        _check(
            name in report["scenarios"],
            "comparison names unknown scenario %r",
            name,
        )
        for field in ("baseline_events_per_sec", "speedup", "fingerprint_match"):
            _check(field in row, "comparison %r missing field %r", name, field)
    return report
