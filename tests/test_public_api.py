"""The package's public surface: ``__all__``, the names removed in 0.3.0, and the traced functions.

``perfbench/tracer.py`` wraps the functions of its ``TARGETS`` table by name
in each layer module, so every entry must stay a callable there.  The table
is read with ``ast``, without importing perfbench.
"""

import ast
import importlib
import os

import pytest

import wigner_classicality

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


def _tracer_targets() -> list[tuple[str, str]]:
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                                                for t in node.targets):
            table = ast.literal_eval(node.value)
            return [(layer, name) for layer, names in table.items() for name in names]
    raise AssertionError("no TARGETS table in perfbench/tracer.py")


def test_all_names_resolve_once():
    names = wigner_classicality.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(wigner_classicality, name), name


@pytest.mark.parametrize("module, name", [
    ("", "mc_function"), ("ensembles", "mc_function"),
    ("", "log_joint_density"), ("ensembles", "log_joint_density"),
    ("", "joint_density"), ("ensembles", "joint_density"),
    ("", "enumerate_strata"), ("spectra", "enumerate_strata"),
])
def test_removed_names_are_gone(module, name):
    home = importlib.import_module("wigner_classicality" + (f".{module}" if module else ""))
    assert not hasattr(home, name)
    assert name not in wigner_classicality.__all__


def test_enum_constructors_replace_from_name():
    for enum in (wigner_classicality.EnsembleKind, wigner_classicality.Method):
        assert not hasattr(enum, "from_name")
        assert all(enum(member.value) is member for member in enum)


def test_tracer_targets_are_callables_of_their_layer():
    targets = _tracer_targets()
    assert targets
    for layer, name in targets:
        module = importlib.import_module(f"wigner_classicality.{layer}")
        assert callable(getattr(module, name, None)), f"{layer}.{name}"
