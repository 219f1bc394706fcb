"""Flow-level modelling for fabric-scale experiments.

Figure 7 runs 3072 QPs over 1152 servers -- far beyond what packet-level
simulation needs to answer the question the paper asks of it, because
the paper itself attributes the result to ECMP hash placement: "This 60%
limitation is caused by ECMP hash collision, not PFC or HOL blocking."

So this subpackage reproduces figure 7 the way the bottleneck actually
works: hash every QP onto its path (:mod:`~repro.flows.clos_model`),
then compute the max-min fair rate allocation over link capacities
(:mod:`~repro.flows.maxmin`) -- which is what a converged, lossless,
DCQCN-controlled fabric settles to.
"""

import importlib

#: re-exported name -> the submodule that defines it, resolved on first
#: use (PEP 562): flowsim's solver is ``repro.flows.maxmin``, and an eager
#: ``clos_model`` would load ``repro.flowsim`` from inside it.
_EXPORTS = {
    "max_min_allocation": "repro.flows.maxmin",
    "ClosFlowModel": "repro.flows.clos_model",
    "ClosFlowResult": "repro.flows.clos_model",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
