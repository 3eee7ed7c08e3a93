"""Meta-tests on the public API surface.

A library's ``__all__`` lists are part of its contract: every name must
resolve, and the documented entry points must be importable exactly as
the README shows them.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.core.operators",
    "repro.sim",
    "repro.network",
    "repro.distributed",
    "repro.ha",
    "repro.medusa",
    "repro.workloads",
    "repro.obs",
    "repro.parallel",
]


class TestAllLists:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_all_entry_resolves(self, package):
        module = importlib.import_module(package)
        exported = getattr(module, "__all__", None)
        assert exported, f"{package} should declare __all__"
        for name in exported:
            assert hasattr(module, name), f"{package}.__all__ lists missing {name!r}"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_entries_unique(self, package):
        module = importlib.import_module(package)
        exported = module.__all__
        assert len(set(exported)) == len(exported)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_module_docstring_present(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__.strip()) > 40


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs(self):
        # The exact imports and flow from README.md's quickstart.
        from repro import AuroraEngine, Filter, QueryNetwork, Tumble, make_stream
        from repro.core.tuples import FIGURE_2_STREAM

        net = QueryNetwork()
        net.add_box("clean", Filter(lambda t: t["B"] > 0))
        net.add_box(
            "avg",
            Tumble("avg", groupby=("A",), value_attr="B", result_attr="Result"),
        )
        net.connect("in:readings", "clean")
        net.connect("clean", "avg")
        net.connect("avg", "out:averages")

        engine = AuroraEngine(net)
        engine.push_many("readings", make_stream(FIGURE_2_STREAM))
        engine.run_until_idle()
        assert [t.values for t in engine.outputs["averages"]] == [
            {"A": 1, "Result": 2.5},
            {"A": 2, "Result": 3.0},
        ]

    def test_version_exposed(self):
        import repro

        assert repro.__version__ == "1.0.0"


class TestPublicDocstrings:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_public_classes_and_functions_documented(self, package):
        module = importlib.import_module(package)
        undocumented = [
            name
            for name in module.__all__
            if callable(getattr(module, name))
            and not (getattr(module, name).__doc__ or "").strip()
        ]
        assert not undocumented, f"{package}: undocumented public items {undocumented}"
