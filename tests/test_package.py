"""The package namespace: every name, and every submodule, loads on first use."""

import ast
import subprocess
import sys
from pathlib import Path

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


def test_every_private_module_level_name_is_used_by_the_package():
    # a private name defined at a module's top level (a def, a class or an
    # assignment) must be read somewhere in the package, as a name or an
    # attribute: one that only tests use is dead code
    trees = [ast.parse(path.read_text()) for path in Path(sylvester.__file__).parent.glob("*.py")]
    defined = set()
    for stmt in (stmt for tree in trees for stmt in tree.body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined.update(node.id for target in targets for node in ast.walk(target)
                           if isinstance(node, ast.Name))
    used = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    unused = sorted(private - used)
    assert private and unused == []


def test_json_is_encoded_in_one_place():
    # cli._encoder builds the package's one JSON encoder; nothing else in src/
    # calls json.dumps or json.dump or builds a JSONEncoder or a C encoder
    encoding = {"dumps", "dump", "JSONEncoder", "c_make_encoder"}

    def called(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in encoding:
                    yield name

    inside, outside = [], []
    for path in Path(sylvester.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            if path.name == "cli.py" and isinstance(stmt, ast.FunctionDef) \
                    and stmt.name == "_encoder":
                inside += called(stmt)
            else:
                outside += [(path.name, name) for name in called(stmt)]
    assert inside and outside == []


_COUNTED = '''\
"""A module docstring,
on two lines."""
import os  # 1

# a comment line


def f(x):  # 2
    """A function's docstring."""
    text = """a string
that is not a docstring"""  # 3, 4
    "an expression, not the body's first statement"  # 5
    return os.path.join(  # 6
        x, text)  # 7


class C:  # 8
    \'\'\'A class's docstring.\'\'\'
    y = 1  # 9
'''


def test_code_lines_counts_no_blank_line_comment_or_docstring(tmp_path):
    import code_lines

    assert code_lines.code_lines(_COUNTED) == 9
    assert code_lines.code_lines("") == 0
    path = tmp_path / "counted.py"
    path.write_text(_COUNTED)
    proc = subprocess.run([sys.executable, code_lines.__file__, str(path)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == f"9 {path}\n"
