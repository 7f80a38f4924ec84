"""Unit tests for the fact pass and its call graph.

Exercises the resolution rules :mod:`repro.checks.callgraph`
documents — scope chain, import aliases, ``self.`` methods, external
canonical names — plus the one breadth-first search and the entry-point
facts (process-pool launches, registered workers) every transitive
checker builds on.
"""

from __future__ import annotations

import pytest

from repro.checks import run_checks
from repro.checks.callgraph import format_path, module_name


@pytest.mark.parametrize(
    ("rel", "expected"),
    [
        ("src/repro/serve/server.py", "repro.serve.server"),
        ("src/repro/checks/__init__.py", "repro.checks"),
        ("examples/analysis_service.py", "examples.analysis_service"),
        ("src/repro/core.py", "repro.core"),
    ],
)
def test_module_name(rel, expected):
    assert module_name(rel) == expected


def _graph(make_tree, files):
    return make_tree(files).callgraph()


def _site(graph, node_id, line):
    hits = [s for s in graph.scope(node_id).sites if s.line == line]
    assert len(hits) == 1, graph.scope(node_id).sites
    return hits[0]


class TestResolution:
    def test_module_function_and_local_def(self, make_tree):
        graph = _graph(
            make_tree,
            {
                "a.py": (
                    "def top():\n"
                    "    def inner():\n"
                    "        return helper()\n"
                    "    return inner()\n"
                    "\n"
                    "def helper():\n"
                    "    return 1\n"
                ),
            },
        )
        outer = _site(graph, "repro.a:top", 4)
        assert outer.target == "repro.a:top.<locals>.inner"
        nested = _site(graph, "repro.a:top.<locals>.inner", 3)
        assert nested.target == "repro.a:helper"

    def test_self_method_resolves_within_the_class(self, make_tree):
        graph = _graph(
            make_tree,
            {
                "a.py": (
                    "class Box:\n"
                    "    def get(self):\n"
                    "        return self._load()\n"
                    "\n"
                    "    def _load(self):\n"
                    "        return 0\n"
                ),
            },
        )
        site = _site(graph, "repro.a:Box.get", 3)
        assert site.target == "repro.a:Box._load"

    def test_class_call_resolves_to_init(self, make_tree):
        graph = _graph(
            make_tree,
            {
                "a.py": (
                    "class Box:\n"
                    "    def __init__(self):\n"
                    "        self.x = 1\n"
                    "\n"
                    "def make():\n"
                    "    return Box()\n"
                ),
            },
        )
        site = _site(graph, "repro.a:make", 6)
        assert site.target == "repro.a:Box.__init__"

    def test_module_level_import_alias(self, make_tree):
        graph = _graph(
            make_tree,
            {
                "a.py": "from repro.b import load\n\ndef go():\n    return load()\n",
                "b.py": "def load():\n    return 1\n",
            },
        )
        site = _site(graph, "repro.a:go", 4)
        assert site.target == "repro.b:load"

    def test_function_local_lazy_import_wins(self, make_tree):
        # The repo's lazy-import idiom: a function-local import must
        # shadow whatever the module-level tables would say.
        graph = _graph(
            make_tree,
            {
                "a.py": (
                    "def load():\n"
                    "    return 'module-level decoy'\n"
                    "\n"
                    "def go():\n"
                    "    from repro.b import load\n"
                    "    return load()\n"
                ),
                "b.py": "def load():\n    return 1\n",
            },
        )
        site = _site(graph, "repro.a:go", 6)
        assert site.target == "repro.b:load"

    def test_shadowed_name_is_not_an_edge(self, make_tree):
        # A parameter or assignment rebinding a module function's name
        # makes the call unresolvable — not a false edge.
        graph = _graph(
            make_tree,
            {
                "a.py": (
                    "def helper():\n"
                    "    return 1\n"
                    "\n"
                    "def go(helper):\n"
                    "    return helper()\n"
                ),
            },
        )
        site = _site(graph, "repro.a:go", 5)
        assert site.target is None
        assert site.external is None

    def test_external_call_keeps_its_canonical_name(self, make_tree):
        graph = _graph(
            make_tree,
            {
                "a.py": (
                    "import time\n"
                    "from time import sleep\n"
                    "\n"
                    "def a():\n"
                    "    time.sleep(1)\n"
                    "\n"
                    "def b():\n"
                    "    sleep(1)\n"
                ),
            },
        )
        assert _site(graph, "repro.a:a", 5).external == "time.sleep"
        assert _site(graph, "repro.a:b", 8).external == "time.sleep"

    def test_unresolvable_method_keeps_its_attr(self, make_tree):
        graph = _graph(
            make_tree,
            {"a.py": "def go(obj):\n    return obj.result()\n"},
        )
        site = _site(graph, "repro.a:go", 2)
        assert site.target is None
        assert site.attr == "result"

    def test_guarded_module_import_resolves(self, make_tree):
        # A module-scope import is module-scope at any column: one
        # inside try/if binds the alias exactly like a top-level one.
        graph = _graph(
            make_tree,
            {
                "a.py": (
                    "try:\n"
                    "    import time as clock\n"
                    "except ImportError:\n"
                    "    clock = None\n"
                    "\n"
                    "def stamp():\n"
                    "    return clock.time()\n"
                ),
            },
        )
        assert _site(graph, "repro.a:stamp", 7).external == "time.time"

    def test_module_level_calls_are_sites(self, make_tree):
        graph = _graph(make_tree, {"a.py": "import os\n\nos.getcwd()\n"})
        site = _site(graph, "repro.a:<module>", 3)
        assert site.external == "os.getcwd"

    def test_resolve_dotted(self, make_tree):
        graph = _graph(
            make_tree,
            {
                "pkg/__init__.py": "",
                "pkg/mod.py": (
                    "class Box:\n"
                    "    def get(self):\n"
                    "        return 1\n"
                    "\n"
                    "def load():\n"
                    "    return 1\n"
                ),
            },
        )
        assert graph.resolve_dotted("repro.pkg.mod.load") == (
            "repro.pkg.mod:load"
        )
        assert graph.resolve_dotted("repro.pkg.mod.Box.get") == (
            "repro.pkg.mod:Box.get"
        )
        assert graph.resolve_dotted("repro.pkg.mod.missing") is None
        assert graph.resolve_dotted("os.path.join") is None


class TestReachability:
    FILES = {
        "a.py": (
            "from repro.b import mid\n"
            "\n"
            "def entry():\n"
            "    return mid()\n"
            "\n"
            "def shortcut():\n"
            "    return leaf()\n"
            "\n"
            "def leaf():\n"
            "    return 1\n"
        ),
        "b.py": (
            "from repro.a import leaf\n"
            "\n"
            "def mid():\n"
            "    return leaf()\n"
        ),
    }

    def test_walk_sites_reports_shortest_paths(self, make_tree):
        graph = _graph(make_tree, self.FILES)
        paths = {
            site.target: path
            for path, _via, site in graph.walk_sites("repro.a:entry")
            if site.target
        }
        assert paths["repro.b:mid"] == ("repro.a:entry",)
        assert paths["repro.a:leaf"] == ("repro.a:entry", "repro.b:mid")

    def test_walk_respects_the_follow_filter(self, make_tree):
        graph = _graph(make_tree, self.FILES)
        targets = {
            site.target
            for _path, _via, site in graph.walk_sites(
                "repro.a:entry", follow=lambda info: info.module != "repro.b"
            )
            if site.target
        }
        # mid is *seen* as a callee but never descended into.
        assert targets == {"repro.b:mid"}


class TestEntryPoints:
    def test_fork_entries_sees_pool_submit_and_process_target(
        self, make_tree
    ):
        graph = _graph(
            make_tree,
            {
                "a.py": (
                    "from concurrent.futures import ProcessPoolExecutor\n"
                    "import multiprocessing\n"
                    "\n"
                    "def work(x):\n"
                    "    return x\n"
                    "\n"
                    "def fan_out():\n"
                    "    pool = ProcessPoolExecutor(2)\n"
                    "    pool.submit(work, 1)\n"
                    "    p = multiprocessing.Process(target=work)\n"
                    "    p.start()\n"
                ),
            },
        )
        entries = {
            (target, site.line) for target, site in graph.launches
        }
        assert entries == {("repro.a:work", 9), ("repro.a:work", 10)}

    def test_thread_pool_submit_is_not_a_fork_entry(self, make_tree):
        graph = _graph(
            make_tree,
            {
                "a.py": (
                    "from concurrent.futures import ThreadPoolExecutor\n"
                    "\n"
                    "def work(x):\n"
                    "    return x\n"
                    "\n"
                    "def fan_out():\n"
                    "    pool = ThreadPoolExecutor(2)\n"
                    "    pool.submit(work, 1)\n"
                ),
            },
        )
        assert graph.launches == ()

    def test_worker_entries_cover_the_worker_role(self, make_tree):
        graph = _graph(
            make_tree,
            {
                "reg.py": (
                    "from repro.work import decode, single\n"
                    "\n"
                    "def register_family(family):\n"
                    "    return family\n"
                    "\n"
                    "class Family:\n"
                    "    def __init__(self, worker=None, decoder=None):\n"
                    "        self.worker = worker\n"
                    "\n"
                    "register_family(\n"
                    "    Family(worker=single, decoder=decode)\n"
                    ")\n"
                ),
                "work.py": (
                    "def single(s):\n"
                    "    return s\n"
                    "\n"
                    "def decode(record):\n"
                    "    return record\n"
                ),
            },
        )
        entries = [
            (target, site.line) for target, site in graph.workers
        ]
        assert entries == [("repro.work:single", 10)]


def test_worker_reaching_a_guarded_clock_alias_is_det006(make_tree):
    tree = make_tree(
        {
            "reg.py": (
                "from repro.work import single\n"
                "\n"
                "def register_family(family):\n"
                "    return family\n"
                "\n"
                "class Family:\n"
                "    def __init__(self, worker=None):\n"
                "        self.worker = worker\n"
                "\n"
                "register_family(Family(worker=single))\n"
            ),
            "work.py": (
                "try:\n"
                "    import time as clock\n"
                "except ImportError:  # pragma: no cover\n"
                "    clock = None\n"
                "\n"
                "def single(s):\n"
                "    return _stamp(s)\n"
                "\n"
                "def _stamp(s):\n"
                "    return (s, clock.time())\n"
            ),
        }
    )
    report = run_checks(tree, select=["DET006"])
    assert [(f.file, f.line) for f in report.findings] == [
        ("src/repro/work.py", 7)
    ]
    assert "single -> _stamp -> time.time()" in report.findings[0].message


def test_format_path(make_tree):
    graph = _graph(
        make_tree,
        {
            "a.py": (
                "import time\n"
                "from repro.b import mid\n"
                "\n"
                "def entry():\n"
                "    return mid()\n"
            ),
            "b.py": "import time\n\ndef mid():\n    time.sleep(1)\n",
        },
    )
    [(path, site)] = [
        (path, site)
        for path, _via, site in graph.walk_sites("repro.a:entry")
        if site.external == "time.sleep"
    ]
    assert format_path(graph, path, site.external) == (
        "entry -> mid -> time.sleep()"
    )
