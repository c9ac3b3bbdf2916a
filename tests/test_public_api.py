"""Hygiene tests for the public API surface."""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.sim",
    "repro.net",
    "repro.crypto",
    "repro.faults",
    "repro.protocols",
    "repro.attacks",
    "repro.analysis",
    "repro.workloads",
    "repro.experiments",
    "repro.serve",
    "repro.viz",
    "repro.privacy",
    "repro.tune",
]


class TestTopLevel:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_version_matches_newest_changelog_entry(self):
        changelog = pathlib.Path(__file__).resolve().parents[1] / "CHANGELOG.md"
        newest = re.search(
            r"^## (\d+\.\d+\.\d+)\s*$", changelog.read_text(), re.MULTILINE
        )
        assert newest is not None, "CHANGELOG.md has no release heading"
        assert repro.__version__ == newest.group(1)

    def test_no_private_names_exported(self):
        private = [
            n
            for n in repro.__all__
            if n.startswith("_") and n != "__version__"
        ]
        assert not private


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_imports_and_exports(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a docstring"
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_every_submodule_documented(self, module_name):
        package = importlib.import_module(module_name)
        for info in pkgutil.iter_modules(package.__path__):
            sub = importlib.import_module(f"{module_name}.{info.name}")
            assert sub.__doc__, f"{module_name}.{info.name} lacks a docstring"


class TestProtocols:
    def test_timing_knobs_live_in_the_shared_convergecast(self):
        import dataclasses

        import repro.protocols as protocols
        from repro.protocols import convergecast

        assert "TagParams" not in protocols.__all__
        assert not hasattr(protocols, "TagParams")
        assert "MAX_DEPTH_SLOTS" in protocols.__all__
        assert protocols.MAX_DEPTH_SLOTS is convergecast.MAX_DEPTH_SLOTS
        assert [f.name for f in dataclasses.fields(protocols.PdaParams)] == [
            "slices",
            "magnitude",
        ]


class TestDocstrings:
    def test_public_classes_and_functions_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(name)
                    continue
                if inspect.isclass(obj):
                    for meth_name, meth in inspect.getmembers(
                        obj, inspect.isfunction
                    ):
                        if meth_name.startswith("_"):
                            continue
                        if meth.__qualname__.startswith(obj.__name__):
                            if not inspect.getdoc(meth):
                                undocumented.append(
                                    f"{name}.{meth_name}"
                                )
        assert not undocumented, f"missing docstrings: {undocumented}"
