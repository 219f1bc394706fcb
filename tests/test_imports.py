"""The import graph is pinned: what a cold ``import`` loads, and the
package re-exports that keep it small.

``repro`` and ``repro.monitoring`` resolve their re-exports on first use
(PEP 562), so importing the engine, the CLI or an observability plane
does not load the packet stack.  Each graph test runs in a fresh
interpreter, so the answer does not depend on what this process has
already imported.
"""

import importlib
import os
import subprocess
import sys

import pytest

import repro
import repro.monitoring

PACKET_STACK = ("net", "switch", "nic", "rdma", "tcp", "dcqcn", "topo")


def _loaded(statement):
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    script = (
        "import sys\n%s\n"
        "print('\\n'.join(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"
        % statement
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    result = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                            capture_output=True, text=True, timeout=60)
    return set(result.stdout.split())


def _subpackage(module):
    """``"repro.sim.engine"`` -> ``"sim"``; ``"repro"`` -> ``""``."""
    return module.partition(".")[2].split(".")[0]


def test_the_engine_loads_only_itself():
    loaded = _loaded("import repro.sim")
    assert "repro.sim" in loaded
    assert {m for m in loaded if _subpackage(m) not in ("", "sim")} == set()


@pytest.mark.parametrize("plane", ["repro.telemetry", "repro.tracing"])
def test_a_plane_loads_no_packet_stack(plane):
    loaded = _loaded("import %s" % plane)
    assert plane in loaded
    assert {m for m in loaded if _subpackage(m) in PACKET_STACK} == set()


@pytest.mark.parametrize("package", [repro, repro.monitoring], ids=lambda p: p.__name__)
class TestLazyReExports:
    def test_each_name_is_its_defining_modules_object(self, package):
        for name in package.__all__:
            if name == "__version__":
                continue
            defining = importlib.import_module(package._EXPORTS[name])
            assert getattr(package, name) is getattr(defining, name), name

    def test_dir_lists_every_name(self, package):
        assert set(package.__all__) <= set(dir(package))

    def test_an_unknown_name_is_an_attribute_error_naming_the_module(self, package):
        with pytest.raises(AttributeError, match=package.__name__ + ".*no_such_name"):
            package.no_such_name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert len(repro.__all__) == 17  # sixteen re-exports and __version__

