"""The experiment catalogue as data: one entry per runner.

The campaign orchestrator (:mod:`repro.campaign`) and ``python -m
repro run`` need the id -> runner mapping plus which parameters each
runner accepts and whether it is seeded, so the catalogue lives here as
first-class objects.

An entry names its runner by *importable reference* (``module:attr``)
rather than by function object so that campaign worker processes can
resolve it after a bare ``import``, whatever the multiprocessing start
method.  It names the paper's claims the same way: a ``claims(rows) ->
[(name, passed)]`` function beside the runner, the one definition of
what the experiment must show, judged by ``python -m repro run`` on
every run's rows.
"""

import importlib
import inspect


class CatalogEntry:
    """One experiment the CLIs and the campaign runner can launch."""

    __slots__ = ("exp_id", "runner_name", "description", "ref", "claims_ref")

    def __init__(self, exp_id, runner_name, description, ref=None, claims_ref=None):
        self.exp_id = exp_id
        self.runner_name = runner_name
        self.description = description
        self.ref = ref or ("repro.experiments:%s" % runner_name)
        self.claims_ref = claims_ref

    def resolve(self):
        """Import and return the runner callable."""
        return resolve_ref(self.ref)

    def judge(self, rows):
        """The paper's claims on ``rows`` as ``[(name, passed)]``; ``[]``
        when the entry states none.  Rows that do not hold what a claim
        reads (a missing row or column) are one failed verdict naming
        the error, not a traceback."""
        if self.claims_ref is None:
            return []
        try:
            return [(name, bool(passed)) for name, passed in resolve_ref(self.claims_ref)(rows)]
        except Exception as error:
            return [("rows hold what the claims read (%s: %s)"
                     % (type(error).__name__, error), False)]

    def parameters(self):
        """Name -> default for every keyword parameter of the runner."""
        signature = inspect.signature(self.resolve())
        return {
            name: parameter.default
            for name, parameter in signature.parameters.items()
            if parameter.default is not inspect.Parameter.empty
        }

    @property
    def seedable(self):
        """True when the runner accepts an explicit ``seed`` argument."""
        return "seed" in self.parameters()

    def __repr__(self):
        return "CatalogEntry(%s, %s)" % (self.exp_id, self.runner_name)


def resolve_ref(ref):
    """Resolve a ``module:attr`` reference to the named object."""
    module_name, _, attr = ref.partition(":")
    if not module_name or not attr:
        raise ValueError("expected 'module:attr' reference, got %r" % (ref,))
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attr)
    except AttributeError:
        raise AttributeError("module %r has no attribute %r" % (module_name, attr))


def _entry(exp_id, runner_name, description, claims):
    return CatalogEntry(exp_id, runner_name, description,
                        claims_ref="repro.experiments.%s" % claims)


#: id -> CatalogEntry, in presentation order.
CATALOG = {
    entry.exp_id: entry
    for entry in (
        _entry("E1", "run_livelock", "transport livelock, go-back-0 vs go-back-N (sec 4.1)",
               "livelock:claims"),
        _entry("E2", "run_deadlock", "PFC deadlock via flooding + the ARP-drop fix (fig 4)",
               "deadlock:claims"),
        _entry("E3", "run_storm", "NIC pause storm and the two watchdogs (figs 5, 9)",
               "storm:claims"),
        _entry("E4", "run_latency_vs_tcp", "RDMA vs TCP latency percentiles (fig 6)",
               "latency_cdf:claims"),
        _entry("E5", "run_clos_throughput", "3-tier Clos aggregate throughput (fig 7)",
               "clos_throughput:claims"),
        _entry("E6", "run_congestion_latency", "latency before/after saturating load (fig 8)",
               "congestion_latency:claims"),
        _entry("E7", "run_slow_receiver", "slow-receiver symptom and mitigations (sec 4.4)",
               "slow_receiver:claims"),
        _entry("E8", "run_buffer_misconfig", "buffer alpha misconfiguration (fig 10)",
               "buffer_misconfig:claims"),
        _entry("E9", "run_dscp_vs_vlan", "DSCP-based vs VLAN-based PFC (sec 3)",
               "dscp_vs_vlan:claims"),
        _entry("E10", "run_cpu_overhead", "TCP vs RDMA CPU cost (sec 1)",
               "cpu_overhead:claims"),
        _entry("E11", "run_headroom", "PFC headroom and the two-class limit (sec 2)",
               "headroom:claims"),
        _entry("A1", "run_cc_comparison", "ablation: none / DCQCN / TIMELY",
               "ablations:cc_comparison_claims"),
        _entry("A2", "run_alpha_sweep", "ablation: dynamic-alpha sweep",
               "ablations:alpha_sweep_claims"),
        _entry("A3", "run_ecn_sweep", "ablation: DCQCN Kmin vs pause generation",
               "ablations:ecn_sweep_claims"),
        _entry("A4", "run_gbn_waste", "ablation: go-back-N waste vs RTT",
               "ablations:gbn_waste_claims"),
        _entry("A5", "run_routing_models", "ablation: ECMP vs per-packet spraying",
               "ablations:routing_models_claims"),
        _entry("A6", "run_interdc_distance", "ablation: PFC headroom vs distance",
               "ablations:interdc_distance_claims"),
        _entry("A7", "run_tcp_flavours", "ablation: TCP class flavour, Reno vs DCTCP",
               "ablations:tcp_flavours_claims"),
        CatalogEntry(
            "F1",
            "run_flowsim_scale",
            "flowsim: 4096-host Clos, 50k+ flows from the storage/web CDFs",
            ref="repro.experiments.flowsim_scale:run_flowsim_scale",
            claims_ref="repro.experiments.flowsim_scale:scale_claims",
        ),
        CatalogEntry(
            "F2",
            "run_flowsim_figure7",
            "flowsim vs analytic Clos model on the figure 7 fabric",
            ref="repro.experiments.flowsim_scale:run_flowsim_figure7",
        ),
        CatalogEntry(
            "V1",
            "run_validation_sweep",
            "differential validation sweep: packet sim vs flow model and flowsim",
            ref="repro.validation.harness:run_validation_sweep",
            claims_ref="repro.validation.harness:claims",
        ),
    )
}


def resolve_tokens(tokens):
    """Match CLI tokens to catalogue ids (exact id, else name fragment).

    Returns (selected ids, unmatched tokens), preserving order and
    dropping duplicates.
    """
    selected, unmatched = [], []
    for token in tokens:
        if token.upper() in CATALOG:
            matches = [token.upper()]
        else:
            token_lower = token.lower()
            matches = [
                entry.exp_id
                for entry in CATALOG.values()
                if token_lower in entry.runner_name.lower()
                or token_lower in entry.description.lower()
            ]
        if not matches:
            unmatched.append(token)
        selected.extend(m for m in matches if m not in selected)
    return selected, unmatched
