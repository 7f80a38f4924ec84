"""Generate the registry-driven sections of ``docs/api.md``.

The scenario-family axis tables, the workload table and the
static-checker table in the public API reference are *generated* from
the live registries rather than hand-maintained:
``tests/api/test_docgen.py`` regenerates them and asserts the
committed markdown matches, so adding a family, a workload, a checker
or an axis without regenerating the docs fails the suite.

Regenerate with::

    PYTHONPATH=src python -m repro.api.docgen docs/api.md
"""

from __future__ import annotations

from pathlib import Path

#: Markers bracketing the generated block inside ``docs/api.md``.
BEGIN_MARKER = "<!-- BEGIN GENERATED (repro.api.docgen) -->"
END_MARKER = "<!-- END GENERATED (repro.api.docgen) -->"


def _markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def workload_table() -> str:
    """One markdown table naming every registered workload."""
    from repro.api.workloads import get_workload, workload_names

    rows = []
    for name in workload_names():
        workload = get_workload(name)
        flag_groups = ", ".join(sorted(workload.flags)) or "—"
        rows.append([f"`{name}`", workload.summary, flag_groups])
    return _markdown_table(
        ["Workload", "What it runs", "Shared flag groups"], rows
    )


def checks_table() -> str:
    """One markdown table naming every registered static checker."""
    from repro.checks import check_codes, get_check

    rows = []
    for code in check_codes():
        checker = get_check(code)
        rows.append(
            [
                f"`{code}`",
                f"`{checker.group}`",
                checker.severity,
                checker.summary,
            ]
        )
    return _markdown_table(["Code", "Group", "Severity", "Checks for"], rows)


def family_axes_tables() -> str:
    """One markdown section per scenario family, tables included."""
    from repro.engine.registry import family_names, get_family

    blocks = []
    for name in family_names():
        family = get_family(name)
        rows = []
        for axis in family.axes():
            default = (
                "*(required)*" if axis.required else f"`{axis.default!r}`"
            )
            rows.append(
                [f"`{axis.name}`", f"`{axis.type_name}`", default, axis.help]
            )
        blocks.append(
            f"### Family `{name}`\n\n{family.summary}.\n\n"
            + _markdown_table(
                ["Axis", "Type", "Default", "Description"], rows
            )
        )
    return "\n\n".join(blocks)


def generated_block() -> str:
    """The full generated block, markers included."""
    return "\n".join(
        [
            BEGIN_MARKER,
            "",
            "## Workloads",
            "",
            workload_table(),
            "",
            "## Static checkers",
            "",
            "Generated from the checker registry (`repro.checks`); run "
            "them with `python -m repro check`, select subsets with "
            "`--select`/`--ignore` (codes, groups or prefixes), and see "
            "`docs/checks.md` for what each invariant protects.",
            "",
            checks_table(),
            "",
            "## Scenario-family axes",
            "",
            "Generated from the engine registry "
            "(`ScenarioFamily.axes()`); campaign `axes`/`defaults` refer "
            "to these fields.",
            "",
            family_axes_tables(),
            "",
            END_MARKER,
        ]
    )


def inject(text: str) -> str:
    """Replace the generated block between the markers in ``text``."""
    begin = text.index(BEGIN_MARKER)
    end = text.index(END_MARKER) + len(END_MARKER)
    return text[:begin] + generated_block() + text[end:]


def main(path: str) -> None:
    """Rewrite the generated block of the file at ``path`` in place."""
    target = Path(path)
    target.write_text(inject(target.read_text()))


if __name__ == "__main__":  # pragma: no cover
    import sys

    main(sys.argv[1])
