"""E10 -- CPU overhead of TCP vs RDMA (paper section 1).

"Sending at 40Gb/s using 8 TCP connections chews up 6% aggregate CPU
time on a 32 core Intel Xeon E5-2690 Windows 2012R2 server.  Receiving
at 40Gb/s using 8 connections requires 12% aggregate CPU time. ...
Every server was sending and receiving at 8Gb/s with the CPU utilization
close to 0%" (the latter from the figure 7 RDMA run).
"""

from repro.sim.units import gbps
from repro.tcp.kernel import CpuModel
from repro.experiments.result import ExperimentResult, approx


class CpuOverheadResult(ExperimentResult):
    title = "E10: CPU overhead, TCP vs RDMA (section 1)"


def run_cpu_overhead(rates_gbps=(10, 25, 40, 50, 100), cores=32):
    """Reproduce the section 1 CPU numbers and extrapolate."""
    model = CpuModel(cores=cores)
    rows = []
    for rate in rates_gbps:
        rate_bps = gbps(rate)
        rows.append(
            {
                "rate_gbps": rate,
                "tcp_send_cpu_pct": 100 * model.send_cpu_fraction(rate_bps),
                "tcp_recv_cpu_pct": 100 * model.recv_cpu_fraction(rate_bps),
                "tcp_cores_busy": cores
                * (model.send_cpu_fraction(rate_bps) + model.recv_cpu_fraction(rate_bps)),
                "rdma_cpu_pct": 100 * CpuModel.rdma_cpu_fraction(rate_bps),
            }
        )
    return CpuOverheadResult(rows)


def claims(rows):
    """Section 1: 40 Gb/s costs TCP 6% (send) / 12% (receive) of 32
    cores and RDMA ~0%; linear scaling makes 100 GbE untenable."""
    by_rate = {r["rate_gbps"]: r for r in rows}
    at_40g = by_rate[40]
    # Linear scaling: the planned 100 GbE upgrade makes TCP untenable.
    at_100g = by_rate[100]
    return [
        ("40G: tcp send CPU ~6%", approx(at_40g["tcp_send_cpu_pct"], 6.0, rel=0.05)),
        ("40G: tcp receive CPU ~12%", approx(at_40g["tcp_recv_cpu_pct"], 12.0, rel=0.05)),
        ("40G: rdma CPU is zero", at_40g["rdma_cpu_pct"] == 0.0),
        ("100G: tcp receive CPU ~30%", approx(at_100g["tcp_recv_cpu_pct"], 30.0, rel=0.05)),
    ]
