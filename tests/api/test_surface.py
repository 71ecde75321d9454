"""Export hygiene: the public surfaces import cleanly, the deprecation
shim warns exactly once, and the supported aliases warn never."""

from __future__ import annotations

import importlib
import subprocess
import sys
import warnings

import pytest


@pytest.mark.parametrize("module_name", ["repro", "repro.api", "repro.sweep"])
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in module.__all__:
        assert getattr(module, name) is not None, f"{module_name}.{name}"
    # __dir__ advertises at least the public surface.
    assert set(module.__all__) <= set(dir(module))


def test_star_import_of_the_facade():
    namespace: dict = {}
    exec("from repro.api import *", namespace)
    for name in ("Study", "ResultSet", "ScenarioGrid", "register_backend"):
        assert name in namespace


def test_repro_api_attribute_is_lazy_but_real():
    import repro

    assert repro.api.Study.__name__ == "Study"
    with pytest.raises(AttributeError, match="no attribute"):
        repro.nonexistent_attribute


def test_sweep_aliases_resolve_without_warning():
    import repro.api.result as result_mod

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        sweep = importlib.import_module("repro.sweep")
        assert sweep.pareto_front is result_mod.pareto_front
        assert sweep.sweep_table is result_mod.sweep_table
        assert sweep.group_by is result_mod.group_by
    with pytest.raises(AttributeError, match="repro.sweep"):
        sweep.not_a_thing


def test_python_dash_m_repro_wires_the_cli():
    import os
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    for command in ("sweep", "bench", "study"):
        assert command in proc.stdout
