"""Shared experiment scaffolding."""

import json

from repro.net.port import DwrrScheduler

#: Row cell types that serialize losslessly to JSON (and therefore diff
#: cleanly across runs).  Anything else must be stringified by the
#: experiment itself before it lands in a row.
_SCALAR_TYPES = (type(None), bool, int, float, str)


class SchemaError(ValueError):
    """A result's rows do not share one stable, serializable schema."""


class ExperimentResult:
    """Base result: named rows + a printable table + CSV/JSONL export."""

    title = "experiment"

    def __init__(self, rows):
        self._rows = rows

    def rows(self):
        return list(self._rows)

    def schema(self):
        """The stable column order: first-row keys + extras in first-seen order."""
        columns = []
        for row in self.rows():
            for key in row:
                if key not in columns:
                    columns.append(key)
        return columns

    def check_schema(self):
        """Validate that the rows are machine-diffable; returns the schema.

        Campaign artifacts are compared row-for-row across runs and
        machines, so every row's keys must appear in the union schema in
        the schema's order (rows may omit trailing/optional columns, and
        :meth:`normalized_rows` fills those with ``None``) and every
        cell must be a JSON scalar.  Raises :class:`SchemaError` naming
        the first offending row otherwise.
        """
        columns = self.schema()
        order = {key: position for position, key in enumerate(columns)}
        for index, row in enumerate(self.rows()):
            positions = [order[key] for key in row]
            if positions != sorted(positions):
                raise SchemaError(
                    "%s: row %d columns %r out of schema order %r"
                    % (self.title, index, list(row), columns)
                )
            for key, value in row.items():
                if not isinstance(value, _SCALAR_TYPES):
                    raise SchemaError(
                        "%s: row %d cell %r is %s, not a JSON scalar"
                        % (self.title, index, key, type(value).__name__)
                    )
        return columns

    def normalized_rows(self):
        """Rows with the full schema: union columns, ``None``-filled."""
        columns = self.check_schema()
        return [{key: row.get(key) for key in columns} for row in self.rows()]

    def to_jsonl(self, path=None):
        """Serialize rows as JSON Lines (one canonical object per row).

        Key order follows :meth:`schema`, floats round-trip via
        ``repr``, and there is no whitespace variance -- two runs that
        produced the same rows produce byte-identical files.  Returns
        the JSONL string; also writes it to ``path`` when given.
        """
        lines = [
            json.dumps(row, separators=(",", ":"), allow_nan=False)
            for row in self.normalized_rows()
        ]
        text = "".join(line + "\n" for line in lines)
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
        return text

    def format_table(self):
        rows = self.rows()
        if not rows:
            return "%s: (no rows)" % self.title
        columns = list(rows[0].keys())
        widths = {
            c: max(len(str(c)), max(len(_fmt(r.get(c))) for r in rows)) for c in columns
        }
        lines = [self.title]
        header = "  ".join(str(c).ljust(widths[c]) for c in columns)
        lines.append(header)
        lines.append("  ".join("-" * widths[c] for c in columns))
        for row in rows:
            lines.append("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))
        return "\n".join(lines)


def _fmt(value):
    if isinstance(value, float):
        return "%.3f" % value
    return str(value)


def approx(value, expected, rel):
    """``value`` within ``rel`` of ``expected``, relative to ``expected``
    (the rule of ``pytest.approx(expected, rel=rel)``)."""
    return abs(value - expected) <= rel * abs(expected)


def run_under_audit(fabric, mode="record", **kwargs):
    """Arm the runtime invariant auditors on ``fabric`` and start them.

    Every scripted experiment runs under audit by default.  Pathology
    experiments use record mode -- a deadlock *should* trip the pause
    auditor -- and surface ``registry.violation_count`` as a row column,
    so a scenario that breaks an invariant it should not is visible in
    the results table, not just in a test.
    """
    from repro.faults import install_default_auditors

    return install_default_auditors(fabric, mode=mode, **kwargs).start()


def apply_ets_weights(fabric, weights, quantum_bytes=1600):
    """Install DWRR schedulers on every switch port.

    Models the ETS bandwidth reservation the paper configures so that
    the TCP class keeps its share next to saturating RDMA classes.
    """
    for switch in fabric.switches:
        for port in switch.ports:
            port.scheduler = DwrrScheduler(weights=dict(weights), quantum_bytes=quantum_bytes)


def saturate_pairs(
    sim,
    pairs,
    message_bytes,
    rng,
    qp_config_factory=None,
    dcqcn_config=None,
    start_filter=None,
):
    """Start a closed-loop saturating sender on each (src, dst) pair.

    ``start_filter(index, (src, dst))``, when given, gates which senders
    actually start; construction (QP wiring, RNG draws) always covers
    every pair, so a caller can configure the unstarted senders (bound
    their message count, say) before starting them itself.

    Returns the list of :class:`ClosedLoopSender` (unstarted ones report
    zero completed bytes).
    """
    from repro.dcqcn import enable_dcqcn
    from repro.rdma.qp import QpConfig
    from repro.rdma.verbs import connect_qp_pair
    from repro.workloads import ClosedLoopSender, RdmaChannel

    senders = []
    for src, dst in pairs:
        config_a = qp_config_factory() if qp_config_factory else QpConfig()
        config_b = qp_config_factory() if qp_config_factory else QpConfig()
        qp_a, _qp_b = connect_qp_pair(src, dst, rng, config_a=config_a, config_b=config_b)
        if dcqcn_config is not None:
            enable_dcqcn(qp_a, dcqcn_config)
        sender = ClosedLoopSender(RdmaChannel(qp_a), message_bytes)
        senders.append(sender)
    for index, sender in enumerate(senders):
        if start_filter is None or start_filter(index, pairs[index]):
            sender.start()
    return senders
