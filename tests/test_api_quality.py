"""API-quality gates: every public item documented, imports clean.

Documentation on every public item is part of the deliverable; this
meta-test keeps it true as the library grows.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.apps",
    "repro.baselines",
    "repro.core",
    "repro.eval",
    "repro.kernels",
    "repro.runtime",
    "repro.soc",
]


def iter_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        for info in pkgutil.iter_modules(package.__path__):
            if info.name.startswith("_"):
                continue
            yield importlib.import_module(
                f"{package_name}.{info.name}"
            )


def public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented at its definition site
        yield name, obj


class TestDocumentation:
    def test_every_module_has_a_docstring(self):
        undocumented = [
            module.__name__
            for module in iter_modules()
            if not (module.__doc__ or "").strip()
        ]
        assert undocumented == []

    def test_every_public_class_and_function_documented(self):
        undocumented = []
        for module in iter_modules():
            for name, obj in public_members(module):
                if not (inspect.getdoc(obj) or "").strip():
                    undocumented.append(f"{module.__name__}.{name}")
        assert undocumented == []

    def test_public_methods_documented(self):
        undocumented = []
        for module in iter_modules():
            for name, obj in public_members(module):
                if not inspect.isclass(obj):
                    continue
                for method_name, method in vars(obj).items():
                    if method_name.startswith("_"):
                        continue
                    if not inspect.isfunction(method):
                        continue
                    if not (inspect.getdoc(method) or "").strip():
                        undocumented.append(
                            f"{module.__name__}.{name}.{method_name}"
                        )
        assert undocumented == []


class TestExports:
    def test_all_lists_resolve(self):
        for package_name in PACKAGES:
            package = importlib.import_module(package_name)
            for name in getattr(package, "__all__", []):
                assert hasattr(package, name), (
                    f"{package_name}.__all__ lists missing {name!r}"
                )

    def test_version_exposed(self):
        assert repro.__version__
