"""The determinism gate: ``python -m repro.bench``.

Nine closed, seeded scenarios (:mod:`repro.bench.scenarios`), each
reduced to a fingerprint of every counter that could diverge between two
runs, and one function -- :func:`repro.bench.gate.check` -- that runs
them once and compares fingerprint, event count and packet count to the
pins in ``benchmarks/BASELINE.json``.  A change that keeps all nine
simulates what its parent simulated.

Nothing here reads a clock: timing the simulator is ``perfbench/``'s job
(``BENCHMARK.json``, ``perfbench/README.md``).  See
``docs/benchmarking.md``.
"""

from repro.bench.gate import GateError, check
from repro.bench.scenarios import SCENARIOS

__all__ = ["SCENARIOS", "GateError", "check"]
