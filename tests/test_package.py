"""The package namespace: exact names load eagerly, Monte Carlo names on first use."""

import pytest

import sylvester
import sylvester.montecarlo as mc
from sylvester import _MONTECARLO_NAMES


def test_every_exported_name_resolves():
    for name in sylvester.__all__:
        value = getattr(sylvester, name)
        if name in _MONTECARLO_NAMES:
            assert value is getattr(mc, name), name


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
