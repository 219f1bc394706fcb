"""Declarative sweep specifications.

A :class:`SweepSpec` is data: which experiments to run, which parameter
grid to sweep each one over, and which seeds to replay each grid point
under.  ``expand()`` turns it into the flat, deterministic list of
:class:`RunSpec` the orchestrator executes -- the same spec always
expands to the same runs in the same order, which is what makes
campaigns resumable and their caches addressable.

Specs load from JSON::

    {
      "name": "pfc-sweep",
      "targets": [
        {"experiment": "A3", "seeds": [1, 2, 3]},
        {"experiment": "E1",
         "grid": {"duration_ns": [2000000, 8000000],
                  "operations": [["send"], ["send", "read"]]},
         "seeds": [1, 2]},
        {"experiment": "X1", "ref": "mypkg.exp:run_custom"}
      ]
    }

``grid`` maps parameter name to the list of values to sweep (the
cartesian product over all parameters is taken, in declaration order).
``ref`` lets a spec target any importable ``module:function`` runner
that returns an :class:`~repro.experiments.result.ExperimentResult`;
without it the experiment id is resolved against the experiment catalogue
(:data:`repro.experiments.catalog.CATALOG`).
"""

import hashlib
import itertools
import json

from repro.experiments.catalog import CATALOG


class SpecError(ValueError):
    """A sweep spec that cannot be expanded into runs."""


def canonical_params(params):
    """The canonical JSON encoding of a parameter dict (sorted keys)."""
    try:
        return json.dumps(params, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise SpecError("parameters are not JSON-serializable: %s" % exc)


def params_digest(params):
    """A short stable digest of a parameter dict, used in run ids."""
    return hashlib.sha256(canonical_params(params).encode("utf-8")).hexdigest()[:8]


class RunSpec:
    """One fully-resolved unit of campaign work."""

    __slots__ = ("experiment", "ref", "params", "seed")

    def __init__(self, experiment, ref, params, seed):
        self.experiment = experiment
        self.ref = ref
        self.params = dict(params)
        self.seed = seed

    @property
    def run_id(self):
        """Deterministic, filesystem-safe, human-scannable identifier."""
        parts = [self.experiment]
        if self.params:
            parts.append("p" + params_digest(self.params))
        if self.seed is not None:
            parts.append("s%d" % self.seed)
        return "-".join(parts)

    def describe(self):
        """Dict form for manifests and cache entries."""
        return {
            "experiment": self.experiment,
            "ref": self.ref,
            "params": dict(self.params),
            "seed": self.seed,
        }

    def __repr__(self):
        return "RunSpec(%s)" % self.run_id


class SweepEntry:
    """One experiment x grid x seeds block of a spec."""

    __slots__ = ("experiment", "ref", "grid", "seeds")

    def __init__(self, experiment, ref=None, grid=None, seeds=None):
        self.experiment = experiment
        self.ref = ref
        self.grid = dict(grid or {})
        self.seeds = list(seeds) if seeds is not None else None

    def grid_points(self):
        """Cartesian product of the grid, in declaration order."""
        if not self.grid:
            return [{}]
        names = list(self.grid)
        for name, values in self.grid.items():
            if not isinstance(values, (list, tuple)):
                raise SpecError(
                    "%s: grid value for %r must be a list, got %r"
                    % (self.experiment, name, values)
                )
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(self.grid[n] for n in names))
        ]

    def to_dict(self):
        data = {"experiment": self.experiment}
        if self.ref:
            data["ref"] = self.ref
        if self.grid:
            data["grid"] = {k: list(v) for k, v in self.grid.items()}
        if self.seeds is not None:
            data["seeds"] = list(self.seeds)
        return data


class SweepSpec:
    """A named list of :class:`SweepEntry` blocks."""

    def __init__(self, name, entries):
        self.name = name
        self.entries = list(entries)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise SpecError("spec must be a JSON object, got %s" % type(data).__name__)
        raw_entries = data.get("targets")
        if not isinstance(raw_entries, list) or not raw_entries:
            raise SpecError("spec needs a non-empty 'targets' list")
        entries = []
        for raw in raw_entries:
            if not isinstance(raw, dict) or "experiment" not in raw:
                raise SpecError("each target needs an 'experiment' id: %r" % (raw,))
            unknown = set(raw) - {"experiment", "ref", "grid", "seeds"}
            if unknown:
                raise SpecError(
                    "target %r has unknown keys: %s"
                    % (raw["experiment"], ", ".join(sorted(unknown)))
                )
            seeds = raw.get("seeds")
            if seeds is not None and not (
                    isinstance(seeds, list)
                    and all(type(seed) is int for seed in seeds)):
                raise SpecError(
                    "target %r: 'seeds' must be a list of integers, got %r"
                    % (raw["experiment"], seeds)
                )
            entries.append(
                SweepEntry(
                    raw["experiment"],
                    ref=raw.get("ref"),
                    grid=raw.get("grid"),
                    seeds=seeds,
                )
            )
        return cls(data.get("name", "campaign"), entries)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except OSError as exc:
            raise SpecError("%s: %s" % (path, exc.strerror or exc))
        except ValueError as exc:
            raise SpecError("%s: invalid JSON: %s" % (path, exc))
        return cls.from_dict(data)

    def to_dict(self):
        return {
            "name": self.name,
            "targets": [entry.to_dict() for entry in self.entries],
        }

    def expand(self):
        """Flatten into an ordered list of :class:`RunSpec`.

        Experiment ids resolve against the catalogue, and swept
        parameter names are validated against the runner's signature.
        Seeds are dropped (with one run kept) for runners that take no
        ``seed`` argument.  Duplicate run ids are an error -- they would
        silently overwrite each other's artifacts.
        """
        runs = []
        seen = set()
        for entry in self.entries:
            ref = entry.ref
            seedable = True
            if ref is None:
                target = CATALOG.get(entry.experiment)
                if target is None:
                    raise SpecError(
                        "unknown experiment %r (and no 'ref' given); "
                        "see `python -m repro list`" % entry.experiment
                    )
                ref = target.ref
                known = target.parameters()
                seedable = target.seedable
                if "seed" in entry.grid:
                    raise SpecError(
                        "%s: seed is not a grid parameter; use --seeds "
                        "(a spec target's 'seeds' list)" % entry.experiment
                    )
                bad = [name for name in entry.grid if name not in known]
                if bad:
                    raise SpecError(
                        "%s: runner %s does not sweep parameter(s) %s (accepts: %s)"
                        % (
                            entry.experiment,
                            target.runner_name,
                            ", ".join(sorted(bad)),
                            ", ".join(sorted(set(known) - {"seed"})) or "none",
                        )
                    )
            seeds = entry.seeds if (entry.seeds and seedable) else [None]
            for params in entry.grid_points():
                for seed in seeds:
                    run = RunSpec(entry.experiment, ref, params, seed)
                    if run.run_id in seen:
                        raise SpecError("duplicate run %s in spec" % run.run_id)
                    seen.add(run.run_id)
                    runs.append(run)
        return runs

    def __repr__(self):
        return "SweepSpec(%s, %d targets)" % (self.name, len(self.entries))
