"""The package namespace: every name, and every submodule, loads on first use."""

import subprocess
import sys

import pytest

import sylvester
import sylvester.montecarlo as mc
from sylvester import _EXPORTS


def test_every_exported_name_resolves():
    for name in sylvester.__all__:
        value = getattr(sylvester, name)
        if name in _EXPORTS["montecarlo"]:
            assert value is getattr(mc, name), name


def test_import_loads_no_submodule_until_one_is_used():
    script = """\
import sys
import sylvester
print(sorted(m for m in sys.modules if m.startswith("sylvester.")), "numpy" in sys.modules)
print(sylvester.exactnum.__name__, sylvester.moments.__name__, sylvester.montecarlo.__name__)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.splitlines() == [
        "[] False", "sylvester.exactnum sylvester.moments sylvester.montecarlo"]


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from sylvester import *", namespace)
    assert set(sylvester.__all__) <= set(namespace)
    assert namespace["Ball"] is mc.Ball and namespace["estimate_moment"] is mc.estimate_moment


def test_dir_lists_every_exported_name():
    assert set(sylvester.__all__) <= set(dir(sylvester))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sylvester.no_such_name


def test_default_chunk_is_one_value_in_both_homes():
    assert mc.DEFAULT_CHUNK is sylvester.DEFAULT_CHUNK == 2**15
