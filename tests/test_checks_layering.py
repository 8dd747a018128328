"""Tests for the RPL2xx layering pass.

The synthetic-package tests build a fake layered package in memory
(upward import, cross-layer import, a cycle, an unassigned package) and
assert the pass sees exactly those; the repo test asserts the real tree
produces no layering findings beyond the committed baseline set.
"""

import ast
import textwrap

from repro.checks import layering
from repro.checks.diagnostics import PyFile
from repro.checks.engine import load_files, package_root

LAYERS = {"base": 0, "mid": 1, "top": 2, "app": 3}


def make_file(rel, module, source=""):
    source = textwrap.dedent(source)
    return PyFile(rel=rel, module=module, tree=ast.parse(source),
                  lines=source.splitlines())


def run(files, layers=LAYERS):
    return layering.run(files, layers=layers, top="app")


def codes(diags):
    return sorted(d.code for d in diags)


class TestSyntheticPackages:
    def test_clean_downward_imports(self):
        files = [
            make_file("mid/a.py", "app.mid.a", "from app.base import x"),
            make_file("top/b.py", "app.top.b", "import app.mid.a"),
        ]
        assert run(files) == []

    def test_upward_import_is_rpl201(self):
        files = [
            make_file("base/a.py", "app.base.a", "from app.top import b"),
        ]
        diags = run(files)
        assert codes(diags) == ["RPL201"]
        assert "upward import" in diags[0].message
        assert diags[0].path == "base/a.py"

    def test_cross_layer_sibling_import_is_rpl202(self):
        layers = dict(LAYERS, side=1)
        files = [
            make_file("mid/a.py", "app.mid.a", "from app.side import x"),
        ]
        diags = run(files, layers)
        assert codes(diags) == ["RPL202"]

    def test_cycle_is_reported_once_with_members(self):
        files = [
            make_file("base/a.py", "app.base.a", "from app.mid import x"),
            make_file("mid/b.py", "app.mid.b", "from app.base import y"),
        ]
        diags = run(files)
        # the upward half of the cycle plus one cycle summary
        assert codes(diags) == ["RPL201", "RPL203"]
        cycle = [d for d in diags if d.code == "RPL203"][0]
        assert "base" in cycle.message and "mid" in cycle.message

    def test_three_package_cycle(self):
        files = [
            make_file("base/a.py", "app.base.a", "from app.mid import x"),
            make_file("mid/b.py", "app.mid.b", "from app.top import y"),
            make_file("top/c.py", "app.top.c", "from app.base import z"),
        ]
        diags = run(files)
        cycles = [d for d in diags if d.code == "RPL203"]
        assert len(cycles) == 1
        for pkg in ("base", "mid", "top"):
            assert pkg in cycles[0].message

    def test_unassigned_package_is_rpl204(self):
        files = [
            make_file("mid/a.py", "app.mid.a", "from app.rogue import x"),
        ]
        diags = run(files)
        assert codes(diags) == ["RPL204"]
        assert "rogue" in diags[0].message

    def test_within_package_imports_ignored(self):
        files = [
            make_file("mid/a.py", "app.mid.a", "from app.mid.b import x"),
        ]
        assert run(files) == []

    def test_relative_import_resolved(self):
        files = [
            make_file("base/a.py", "app.base.a",
                      "from ..top import b"),
        ]
        diags = run(files)
        assert codes(diags) == ["RPL201"]


class TestRepoTree:
    def test_real_tree_layering_matches_known_rot(self):
        files = load_files(package_root())
        diags = layering.run(files)
        # The layer DAG has no grandfathered violations left; any
        # finding here is a regression.
        assert diags == [], sorted(d.render() for d in diags)

    def test_every_package_has_a_layer(self):
        files = load_files(package_root())
        diags = layering.run(files)
        assert not [d for d in diags if d.code == "RPL204"], (
            "new package without a layer assignment; "
            "add it to layering.DEFAULT_LAYERS"
        )
