"""Campaign orchestration: parallel, cached, resumable experiment sweeps.

The paper's evaluation is a fleet-scale measurement campaign; this
package is the reproduction's equivalent of the tooling behind it.  It
turns the experiment catalogue (:mod:`repro.experiments`) into
*campaign targets* that can be swept over parameter grids and seed
lists, fanned out across worker processes, cached content-addressably
so unchanged runs are free, and resumed after interruption.

Pieces:

* :mod:`~repro.campaign.spec` -- declarative sweep specs
  (experiment x parameter grid x seeds) and their expansion into runs;
* :mod:`~repro.campaign.cache` -- the content-addressed result cache
  keyed on (code version, runner, params, seed);
* :mod:`~repro.campaign.pool` -- the process-per-task worker pool with
  per-run timeout/retry and failure isolation;
* :mod:`~repro.campaign.store` -- JSONL/CSV artifacts + the manifest;
* :mod:`~repro.campaign.runner` -- the orchestrator gluing the above;
* ``python -m repro run|resume|list|clean`` -- its verbs (docs/cli.md).

Quickstart::

    from repro.campaign import Campaign, SweepSpec

    spec = SweepSpec.from_dict({
        "name": "kmin-study",
        "targets": [{"experiment": "A3", "seeds": [1, 2, 3]}],
    })
    report = Campaign(spec, "campaigns/kmin-study", jobs=4).run()
    assert report.all_ok
"""

from repro.campaign.cache import ResultCache, code_version, run_key
from repro.campaign.pool import TaskOutcome, default_jobs, run_tasks
from repro.campaign.runner import Campaign, CampaignReport, execute_run
from repro.campaign.spec import RunSpec, SpecError, SweepEntry, SweepSpec
from repro.campaign.store import CampaignStore

__all__ = [
    "Campaign",
    "CampaignReport",
    "CampaignStore",
    "ResultCache",
    "RunSpec",
    "SpecError",
    "SweepEntry",
    "SweepSpec",
    "TaskOutcome",
    "code_version",
    "default_jobs",
    "execute_run",
    "run_key",
    "run_tasks",
]
