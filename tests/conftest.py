"""Shared fixtures, and the compiled kernel for the whole session.

Before any test module imports jacgraph, ``pytest_configure`` builds
``src/jacgraph/_speedups.c`` once with the system C compiler, through
``setup.py build_ext`` into a temporary directory (never under ``src/``),
and imports jacgraph with that directory on the package path, so the suite
runs on the compiled kernel.  Without a C compiler on PATH nothing is
built and the compiled-vs-pure parity tests skip; a compile error stops
the run.
"""

import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _c_compiler():
    """The C compiler command the build runs, its path resolved, or None
    when it is not on PATH."""
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    path = shutil.which(cc[0])
    return None if path is None else [path, *cc[1:]]


def pytest_configure(config):
    if "jacgraph" in sys.modules or _c_compiler() is None:
        return
    out = Path(tempfile.mkdtemp(prefix="jacgraph-ext-"))
    config.add_cleanup(lambda: shutil.rmtree(out, ignore_errors=True))
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    package = out / "lib" / "jacgraph"
    if not list(package.glob("_speedups*")):
        pytest.exit(
            f"building jacgraph._speedups failed:\n{build.stdout}{build.stderr}",
            returncode=1,
        )
    spec = importlib.util.find_spec("jacgraph")
    spec.submodule_search_locations.append(str(package))
    module = importlib.util.module_from_spec(spec)
    sys.modules["jacgraph"] = module
    spec.loader.exec_module(module)


def _graph(vertices, edges):
    from jacgraph import Multigraph

    return Multigraph(vertices, edges)


@pytest.fixture
def banana():
    """Two vertices joined by a pair of parallel edges."""
    return _graph(["u", "v"], [("u", "v"), ("u", "v")])


@pytest.fixture
def triangle():
    return _graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


@pytest.fixture
def path2():
    """Two vertices joined by a single bridge."""
    return _graph(["u", "v"], [("u", "v")])


@pytest.fixture
def dumbbell():
    """Loop, bridge, loop."""
    return _graph(["x", "y"], [("x", "x"), ("x", "y"), ("y", "y")])


@pytest.fixture
def square():
    return _graph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
    )


@pytest.fixture(scope="session")
def c_compiler():
    """The C compiler command of the session build; skips without one."""
    cc = _c_compiler()
    if cc is None:
        pytest.skip("no C compiler on PATH")
    return cc


@pytest.fixture(scope="session")
def corpus_cases():
    import corpus

    return corpus.corpus()
