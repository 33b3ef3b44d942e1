"""Repository hygiene: docs reference real artifacts; API is documented.

These meta-tests keep DESIGN.md / EXPERIMENTS.md honest as the repository
evolves — every bench and example they cite must exist — and enforce the
documentation bar (docstrings on every public module/class/function of
the library).
"""

import inspect
import pathlib
import pkgutil
import re
import importlib

import pytest

import repro

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]


def referenced_paths(doc_name, pattern):
    text = (REPO_ROOT / doc_name).read_text()
    return sorted(set(re.findall(pattern, text)))


class TestDocsReferenceRealFiles:
    def test_design_md_benchmarks_exist(self):
        for rel in referenced_paths("DESIGN.md", r"benchmarks/\w+\.py"):
            assert (REPO_ROOT / rel).exists(), f"DESIGN.md references missing {rel}"

    def test_design_md_examples_exist(self):
        for rel in referenced_paths("DESIGN.md", r"examples/\w+\.py"):
            assert (REPO_ROOT / rel).exists(), f"DESIGN.md references missing {rel}"

    def test_design_md_tests_exist(self):
        for rel in referenced_paths("DESIGN.md", r"tests/[\w/]+\.py"):
            assert (REPO_ROOT / rel).exists(), f"DESIGN.md references missing {rel}"

    def test_experiments_md_benchmarks_exist(self):
        for rel in referenced_paths("EXPERIMENTS.md", r"bench_\w+\.py"):
            assert (REPO_ROOT / "benchmarks" / rel).exists(), (
                f"EXPERIMENTS.md references missing benchmarks/{rel}"
            )

    def test_readme_examples_exist(self):
        for rel in referenced_paths("README.md", r"`(\w+\.py)`"):
            assert (REPO_ROOT / "examples" / rel).exists(), (
                f"README.md references missing examples/{rel}"
            )

    def test_every_benchmark_indexed_in_design_md(self):
        """The experiment index stays complete: every bench file on disk
        is referenced by DESIGN.md."""
        text = (REPO_ROOT / "DESIGN.md").read_text()
        for bench in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py")):
            assert bench.name in text, (
                f"benchmarks/{bench.name} missing from DESIGN.md's index"
            )

    def test_every_example_indexed_in_readme(self):
        text = (REPO_ROOT / "README.md").read_text()
        for example in sorted((REPO_ROOT / "examples").glob("*.py")):
            assert example.name in text, (
                f"examples/{example.name} missing from README.md's table"
            )

    def test_design_md_modules_importable(self):
        """Every dotted ``repro.*`` name in DESIGN.md, EXPERIMENTS.md and
        README.md resolves in full, so a doc naming a deleted class or
        function fails here rather than passing on its package prefix."""
        for doc in ("DESIGN.md", "EXPERIMENTS.md", "README.md"):
            for dotted in referenced_paths(doc, r"repro\.[\w.]+\w"):
                try:
                    pkgutil.resolve_name(dotted)
                except (ImportError, AttributeError) as exc:  # pragma: no cover
                    pytest.fail(f"{doc} references unresolvable {dotted}: {exc}")


def iter_public_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")):
            continue
        yield importlib.import_module(info.name)


class TestDocstringCoverage:
    def test_every_module_documented(self):
        for module in iter_public_modules():
            assert module.__doc__, f"{module.__name__} lacks a module docstring"

    def test_every_public_callable_documented(self):
        missing = []
        for module in iter_public_modules():
            exported = getattr(module, "__all__", None)
            if exported is None:
                continue
            for name in exported:
                obj = getattr(module, name, None)
                if obj is None or not callable(obj):
                    continue
                if not inspect.getdoc(obj):
                    missing.append(f"{module.__name__}.{name}")
        assert not missing, f"undocumented public API: {missing}"

    def test_public_classes_document_their_methods(self):
        missing = []
        for module in iter_public_modules():
            exported = getattr(module, "__all__", None) or []
            for name in exported:
                obj = getattr(module, name, None)
                if not inspect.isclass(obj):
                    continue
                for attr_name, attr in vars(obj).items():
                    if attr_name.startswith("_"):
                        continue
                    if callable(attr) and not inspect.getdoc(attr):
                        missing.append(f"{module.__name__}.{name}.{attr_name}")
        assert not missing, f"undocumented public methods: {missing}"
