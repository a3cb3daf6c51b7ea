"""The package surface: public names and submodules that load on first access."""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys

import pytest

import gasket_spectrum as gs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_fresh(script: str) -> subprocess.CompletedProcess:
    """script in a fresh interpreter without site hooks, the package on its path."""
    return subprocess.run([sys.executable, "-S", "-c", script],
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                          capture_output=True, text=True, timeout=60)


def test_public_names_are_their_home_modules_objects():
    assert len(set(gs.__all__)) == len(gs.__all__)
    for name in gs.__all__:
        value = getattr(gs, name)
        if name == "__version__":
            assert isinstance(value, str)
            continue
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("gasket_spectrum."), name
        assert getattr(home, name) is value, name


def test_dir_lists_the_public_names_and_unknown_names_raise():
    assert set(gs.__all__) <= set(dir(gs))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(gs, "no_such_name")
    assert not hasattr(gs, "KL_TERMS")  # a module's name, not the package's


def test_bare_import_loads_nothing_until_used():
    # A bare import runs no submodule; each submodule and public name then
    # resolves on first access, as when the package imported them eagerly.
    submodules = ("bases", "errors", "expansions", "matching", "report", "spectrum", "words")
    proc = run_fresh(
        "import sys\n"
        "import gasket_spectrum as gs\n"
        "print(sorted(m for m in sys.modules if m.startswith('gasket_spectrum.')))\n"
        f"print(all(getattr(gs, m) is sys.modules['gasket_spectrum.' + m] for m in {submodules!r}))\n"
        "ns = {}\n"
        "exec('from gasket_spectrum import *', ns)\n"
        "print(sorted(set(gs.__all__) - set(ns)))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["[]", "True", "[]"]


def test_the_package_creates_one_lock():
    # The grow-only caches share words.keep_longer; every other cache is a
    # functools cache, so no module needs a lock of its own.
    src = os.path.join(ROOT, "src", "gasket_spectrum")
    counts = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                counts[name] = fh.read().count("Lock()")
    assert {k: v for k, v in counts.items() if v} == {"words.py": 1}


def test_readme_quick_tour_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None
    proc = run_fresh(block.group(1))
    assert proc.returncode == 0, proc.stderr
