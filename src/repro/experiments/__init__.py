"""One runner per paper table/figure.

Each module exposes a ``run_*`` function returning a result object with
``rows()`` (list of dicts) and ``format_table()`` (printable), and beside
it a ``claims(rows)`` function -- the paper's claims as named verdicts,
which ``python -m repro run`` judges (see :mod:`.catalog`).  The records
in ``EXPERIMENTS.md`` are generated from these.

==========  =======================================  ======================
Experiment  Paper reference                          Module
==========  =======================================  ======================
E1          section 4.1 (livelock)                   livelock
E2          section 4.2, figure 4 (deadlock)         deadlock
E3          section 4.3, figures 5+9 (PFC storm)     storm
E4          section 5.4, figure 6 (latency vs TCP)   latency_cdf
E5          section 5.4, figure 7 (Clos throughput)  clos_throughput
E6          section 5.4, figure 8 (latency vs load)  congestion_latency
E7          section 4.4 (slow receiver)              slow_receiver
E8          section 6.2, figure 10 (buffer alpha)    buffer_misconfig
E9          section 3 (DSCP vs VLAN PFC)             dscp_vs_vlan
E10         section 1 (CPU overhead)                 cpu_overhead
E11         section 2 (headroom sizing)              headroom
F1          sections 1, 5.4 (datacenter scale)       flowsim_scale
F2          section 5.4, figure 7 (flowsim check)    flowsim_scale
==========  =======================================  ======================

A runner name (``repro.experiments.run_livelock``) resolves on first
use (PEP 562) through the catalogue's reference to it, so importing the
package, the catalogue or :mod:`.common` loads no runner, and ``python
-m repro run E10`` imports E10's module alone.
"""

from repro.experiments.catalog import CATALOG, resolve_ref

#: runner name -> ``module:attr`` reference, read off the catalogue.
_RUNNERS = {
    entry.runner_name: entry.ref
    for entry in CATALOG.values()
    if entry.ref.startswith("repro.experiments.")
}

__all__ = list(_RUNNERS)


def __getattr__(name):
    try:
        ref = _RUNNERS[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    value = globals()[name] = resolve_ref(ref)
    return value


def __dir__():
    return sorted(set(globals()) | set(_RUNNERS))
