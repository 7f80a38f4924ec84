"""Audit regression: the serve/engine concurrency surfaces stay clean.

The PR-10 audit of ``repro.serve.server`` and the engine found zero
live violations — but "zero findings" is only meaningful if the
analysis can be shown to *see* the audited code.  These tests pin
both halves: the call graph and lock analysis resolve the real
``_slot_lock``/``_claims_cond`` regions, the engine's real process
pools, and the real registered workers (so the rules cannot go
silently inert on the code they were built for), and those surfaces
then produce no findings (so a regression in serve/engine fails here
with a call path, not in production).
"""

from __future__ import annotations

from repro.checks import load_tree, repo_root, run_checks

SERVER = "src/repro/serve/server.py"


def _tree():
    return load_tree(repo_root())


def _graph():
    return _tree().callgraph()


class TestAnalysisSeesTheServeLayer:
    def test_both_server_locks_are_discovered(self):
        graph = _graph()
        assert {
            "repro.serve.server:AnalysisServer._claims_cond",
            "repro.serve.server:AnalysisServer._slot_lock",
        } <= graph.locks

    def test_slot_lock_held_regions_are_tracked(self):
        # The dispatcher and the completion callback take _slot_lock to
        # account pool slots; LK001's lock-order verdict over the serve
        # layer is only sound because the analysis sees those regions.
        graph = _graph()
        slot_lock = "repro.serve.server:AnalysisServer._slot_lock"
        for method in ("_dispatch", "_job_finished"):
            scope = graph.scope(f"repro.serve.server:AnalysisServer.{method}")
            assert slot_lock in scope.acquires, method

    def test_condition_wait_exemption_applies_to_acquire_claims(self):
        # _acquire_claims blocks on _claims_cond.wait() *by design*;
        # LK002 must classify that as the exempt wait-on-held-lock
        # idiom, not a blocking call under a lock.
        graph = _graph()
        scope = graph.scope(
            "repro.serve.server:AnalysisServer._acquire_claims"
        )
        waits = [
            site
            for site in scope.sites
            if site.held
            and (site.attr == "wait" or (site.raw or "").endswith(".wait"))
        ]
        assert waits, "cond.wait under the condition went unseen"

    def test_shard_fork_entry_is_discovered(self):
        # Jobs reach child processes only through the engine's one
        # pooled loop, whose executor class is chosen at run time.
        entries = {target for target, _site in _graph().launches}
        assert "repro.engine.engine:_run_chunk_indexed" in entries

    def test_registered_workers_are_discovered(self):
        workers = {target for target, _site in _graph().workers}
        assert any("repro.engine" in w for w in workers), workers


class TestAuditedSurfacesAreClean:
    def test_concurrency_rules_hold_on_the_repo(self):
        report = run_checks(_tree(), select=["concurrency"])
        assert report.ok, "\n" + report.render_text()
        assert set(report.codes_run) == {"LK001", "LK002", "LK003"}

    def test_fork_safety_rules_hold_on_the_repo(self):
        report = run_checks(_tree(), select=["fork-safety"])
        assert report.ok, "\n" + report.render_text()
        assert set(report.codes_run) == {"FS001", "FS002"}

    def test_transitive_hygiene_holds_on_the_repo(self):
        report = run_checks(_tree(), select=["ASY002", "DET006"])
        assert report.ok, "\n" + report.render_text()
