"""Named, seeded random streams.

Every stochastic component (workload generators, ECN marking, jittered
application think time) draws from its own :class:`SeededRng` stream derived
from a global experiment seed plus the component's name.  Components added
or removed from an experiment therefore do not perturb each other's draws,
and every experiment is reproducible from a single integer seed.
"""

import random
import zlib


class SeededRng:
    """A ``random.Random`` stream keyed by ``(seed, name)``."""

    # Instantiated per component (and per ECN-mark draw site); slots keep
    # the wrapper at two machine words over the underlying Random.
    __slots__ = ("seed", "name", "_random")

    def __init__(self, seed, name=""):
        self.seed = seed
        self.name = name
        derived = (seed << 32) ^ zlib.crc32(name.encode("utf-8"))
        self._random = random.Random(derived)

    def child(self, name):
        """Derive an independent stream for a sub-component."""
        return SeededRng(self.seed, "%s/%s" % (self.name, name))

    # Thin, explicit pass-throughs -- model code reads rng.uniform(...) etc.

    def random(self):
        return self._random.random()

    def uniform(self, a, b):
        return self._random.uniform(a, b)

    def randint(self, a, b):
        return self._random.randint(a, b)

    def choice(self, seq):
        return self._random.choice(seq)

    def shuffle(self, seq):
        self._random.shuffle(seq)

    def sample(self, population, k):
        return self._random.sample(population, k)

    def expovariate(self, lambd):
        return self._random.expovariate(lambd)

    def lognormvariate(self, mu, sigma):
        return self._random.lognormvariate(mu, sigma)

    def __repr__(self):
        return "SeededRng(seed=%d, name=%r)" % (self.seed, self.name)
