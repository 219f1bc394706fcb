"""E11 -- PFC headroom sizing and the two-lossless-class limit (paper
section 2).

Headroom per (port, lossless priority) is set by MTU, PFC reaction time
and above all cable length ("The propagation delay is determined by the
distance between the sender and the receiver.  In our network, this can
be as large as 300 meters").  With 9 MB / 12 MB shallow-buffer ToR and
Leaf switches, "we can only reserve enough headroom for two lossless
traffic classes even though the switches support eight."

The binding constraint is the Leaf: more ports than the ToR, 200-300 m
spine cables, and most of the shared buffer must stay *shared* to absorb
actual congestion (the dynamic-alpha pool of section 6.2).  The budget
here keeps 55% shared, with 9 KB jumbo frames (standard in these DCNs)
in the worst-case gray-period arithmetic.
"""

from repro.sim.units import KB, MB, gbps
from repro.switch.buffer import headroom_bytes
from repro.experiments.result import ExperimentResult

JUMBO_MTU = 9216

# (model, buffer MB, ports, worst cable meters) -- section 2's numbers:
# servers ~2 m, ToR-Leaf 10-20 m, Leaf-Spine 200-300 m.
SWITCH_MODELS = (
    ("ToR", 9, 32, 20),
    ("Leaf", 12, 64, 300),
)


class HeadroomResult(ExperimentResult):
    title = "E11: PFC headroom sizing (section 2)"


def _classes_supported(rate_bps, buffer_mb, n_ports, cable_meters, shared_fraction=0.55):
    per_pg = headroom_bytes(rate_bps, cable_meters=cable_meters, mtu_bytes=JUMBO_MTU)
    headroom_budget = buffer_mb * MB * (1 - shared_fraction)
    return int(min(8, headroom_budget // (per_pg * n_ports))), per_pg


def run_headroom(rates_gbps=(40, 100), shared_fraction=0.55):
    """Reproduce the headroom arithmetic behind the two-class limit."""
    rows = []
    for rate in rates_gbps:
        fabric_min = 8
        for model, buffer_mb, n_ports, cable_m in SWITCH_MODELS:
            classes, per_pg = _classes_supported(
                gbps(rate), buffer_mb, n_ports, cable_m, shared_fraction
            )
            fabric_min = min(fabric_min, classes)
            rows.append(
                {
                    "rate_gbps": rate,
                    "switch": model,
                    "buffer_mb": buffer_mb,
                    "ports": n_ports,
                    "cable_m": cable_m,
                    "headroom_per_pg_kb": per_pg / KB,
                    "lossless_classes": classes,
                }
            )
        rows.append(
            {
                "rate_gbps": rate,
                "switch": "fabric-wide",
                "buffer_mb": None,
                "ports": None,
                "cable_m": None,
                "headroom_per_pg_kb": None,
                "lossless_classes": fabric_min,
            }
        )
    return HeadroomResult(rows)


def claims(rows):
    """Section 2: headroom grows with cable length and rate, and the
    shallow buffers afford only two lossless classes at 40 GbE."""
    fabric = {r["rate_gbps"]: r for r in rows if r["switch"] == "fabric-wide"}
    # Headroom grows with cable length within a rate.
    leaf_40 = next(r for r in rows if r["rate_gbps"] == 40 and r["switch"] == "Leaf")
    tor_40 = next(r for r in rows if r["rate_gbps"] == 40 and r["switch"] == "ToR")
    return [
        # The paper's two lossless classes at 40 GbE.
        ("40G: two lossless classes", fabric[40]["lossless_classes"] == 2),
        # Tighter at 100 GbE (the upgrade the paper plans).
        ("100G: fewer classes than 40G",
         fabric[100]["lossless_classes"] < fabric[40]["lossless_classes"]),
        ("40G: Leaf headroom > ToR headroom",
         leaf_40["headroom_per_pg_kb"] > tor_40["headroom_per_pg_kb"]),
    ]
