"""Shared workload distributions (workloads/distributions.py).

The size CDFs both simulation tiers sample from: construction
validation, inverse-transform sampling (determinism, support, one draw
per sample), analytic mean vs empirical mean, quantiles, and the duck
typing that lets the packet generators take a SizeCDF where they
historically took an int.
"""

import pytest

from repro.sim.rng import SeededRng
from repro.sim.units import KB, MB
from repro.workloads import (
    NAMED_CDFS,
    STORAGE_CDF,
    WEB_CDF,
    PoissonFlowArrivals,
    SizeCDF,
    interarrival_ns,
    resolve_size,
)


class TestSizeCdf:
    def test_construction_rejects_malformed_points(self):
        with pytest.raises(ValueError):
            SizeCDF("empty", [])
        with pytest.raises(ValueError):
            SizeCDF("no-top", [(KB, 0.5)])
        with pytest.raises(ValueError):
            SizeCDF("nonmono-size", [(2 * KB, 0.5), (KB, 1.0)])
        with pytest.raises(ValueError):
            SizeCDF("nonmono-prob", [(KB, 0.7), (2 * KB, 0.7), (4 * KB, 1.0)])

    @pytest.mark.parametrize("cdf", [WEB_CDF, STORAGE_CDF], ids=lambda c: c.name)
    def test_samples_deterministic_and_in_support(self, cdf):
        draws_a = [cdf.sample(SeededRng(5, "cdf")) for _ in range(1)]
        rng = SeededRng(5, "cdf")
        assert cdf.sample(rng) == draws_a[0]
        top = cdf.quantile(1.0)
        for _ in range(2000):
            size = cdf.sample(rng)
            assert 1 <= size <= top

    def test_one_uniform_draw_per_sample(self):
        class CountingRng:
            calls = 0

            def random(self):
                self.calls += 1
                return 0.42

        rng = CountingRng()
        WEB_CDF.sample(rng)
        assert rng.calls == 1

    @pytest.mark.parametrize("cdf", [WEB_CDF, STORAGE_CDF], ids=lambda c: c.name)
    def test_empirical_mean_matches_analytic(self, cdf):
        rng = SeededRng(9, "mean")
        n = 20000
        empirical = sum(cdf.sample(rng) for _ in range(n)) / n
        assert empirical == pytest.approx(cdf.mean(), rel=0.05)

    def test_quantiles_monotone_and_anchored(self):
        qs = [0.0, 0.1, 0.35, 0.5, 0.85, 0.99, 1.0]
        values = [STORAGE_CDF.quantile(q) for q in qs]
        assert values == sorted(values)
        assert STORAGE_CDF.quantile(1.0) == 32 * MB
        assert WEB_CDF.quantile(0.15) == 1 * KB
        with pytest.raises(ValueError):
            WEB_CDF.quantile(1.5)

    def test_named_registry(self):
        assert set(NAMED_CDFS) == {"web", "storage"}
        assert NAMED_CDFS["web"] is WEB_CDF


class TestGeneratorWiring:
    def test_resolve_size_duck_typing(self):
        rng = SeededRng(1, "resolve")
        assert resolve_size(4096, rng) == 4096
        assert resolve_size(WEB_CDF, rng) >= 1

    def test_interarrival_is_positive_integer_ns(self):
        rng = SeededRng(2, "gap")
        gaps = [interarrival_ns(rng, 10_000.0) for _ in range(200)]
        assert all(isinstance(gap, int) and gap >= 1 for gap in gaps)
        # ~10k/s -> mean gap ~100us.
        mean = sum(gaps) / len(gaps)
        assert 50_000 < mean < 200_000
        with pytest.raises(ValueError):
            interarrival_ns(rng, 0)

    def test_poisson_flow_arrivals_sequence(self):
        def build():
            rng = SeededRng(3, "arrivals")
            gen = PoissonFlowArrivals(
                rng, 100_000.0, WEB_CDF,
                pair_fn=lambda r: (r.randint(0, 3), r.randint(4, 7)),
            )
            return gen.draw(50, start_ns=1000)

        flows = build()
        assert flows == build()  # same seed, same sequence
        assert len(flows) == 50
        starts = [start for start, _s, _d, _b in flows]
        assert starts == sorted(starts) and starts[0] > 1000
        for _start, src, dst, size in flows:
            assert 0 <= src <= 3 and 4 <= dst <= 7 and size >= 1

    def test_periodic_incast_accepts_sampler(self):
        # The packet-level generator draws per-request sizes from the
        # CDF when given a sampler (and needs its rng to do it).
        from repro.workloads.generators import PeriodicIncast

        class FakeChannel:
            def __init__(self):
                self.sent = []

            def send(self, nbytes, on_delivered=None):
                self.sent.append(nbytes)

        class FakeSim:
            now = 0

            def schedule(self, delay, fn, *args):
                pass

        channels = [FakeChannel(), FakeChannel()]
        incast = PeriodicIncast(
            FakeSim(), channels, WEB_CDF, period_ns=10**6,
            rng=SeededRng(4, "incast"),
        )
        for channel in channels:
            incast._send_one(channel)
        sizes = [channel.sent[0] for channel in channels]
        assert all(size >= 1 for size in sizes)

    def test_periodic_incast_sampler_without_rng_raises(self):
        from repro.workloads.generators import PeriodicIncast

        class FakeChannel:
            def send(self, nbytes, on_delivered=None):
                pass

        class FakeSim:
            now = 0

            def schedule(self, delay, fn, *args):
                pass

        incast = PeriodicIncast(FakeSim(), [], WEB_CDF, period_ns=10**6)
        with pytest.raises(ValueError):
            incast._send_one(FakeChannel())
