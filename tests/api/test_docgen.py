"""Anti-rot check for the generated sections of ``docs/api.md``.

The workload, checker and family-axis tables in the API reference are
generated from the live registries; if a family, workload, checker or
axis changes without regenerating the docs
(``python -m repro.api.docgen docs/api.md``), this test fails with the
drift.
"""

import sys
from pathlib import Path

from repro.api import docgen

API_DOC = Path(__file__).resolve().parent.parent.parent / "docs" / "api.md"


class TestGeneratedDocs:
    def test_api_doc_exists_with_markers(self):
        text = API_DOC.read_text()
        assert docgen.BEGIN_MARKER in text
        assert docgen.END_MARKER in text

    def test_generated_block_is_current(self):
        text = API_DOC.read_text()
        assert docgen.inject(text) == text, (
            "docs/api.md generated tables are stale; regenerate with "
            "'PYTHONPATH=src python -m repro.api.docgen docs/api.md'"
        )

    def test_every_family_has_a_table(self):
        from repro.engine.registry import family_names

        text = API_DOC.read_text()
        for name in family_names():
            assert f"### Family `{name}`" in text

    def test_every_workload_is_listed(self):
        from repro.api import workload_names

        text = API_DOC.read_text()
        for name in workload_names():
            assert f"| `{name}` |" in text

    def test_backend_table_is_environment_independent(self, monkeypatch):
        # The committed docs must regenerate identically whether or not
        # numpy is importable (the docs CI job has none), and the
        # kernel-backend table went with the backend registry.
        block = docgen.generated_block()
        assert "Kernel backends" not in block
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert docgen.generated_block() == block
