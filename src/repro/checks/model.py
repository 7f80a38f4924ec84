"""The static-analysis core: findings, the checker registry, reports.

A *checker* is one named, registered rule (``DET001``, ``WP002``,
``ASY001``, ``RC004``…) that inspects the repository — its parsed
source tree, its live registries, or both — and yields
:class:`Finding` values.  :func:`run_checks` evaluates a selected set
of checkers against one :class:`~repro.checks.source.SourceTree`,
applies inline suppressions (``# repro-check: ignore[CODE]``) and the
committed baseline, and returns a :class:`CheckReport` the CLI renders
as text or JSON.

The registry mirrors the repo's other registries (scenario families,
workloads): checkers register at import time under a
stable code, duplicates fail loudly, and frontends enumerate
:func:`check_codes` rather than hard-coding the rule set — which is
also what keeps the generated checker table in ``docs/api.md`` honest.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from repro.checks.source import SourceTree
from repro.utils.checks import require

#: Finding severities, mildest last.
SEVERITIES = ("error", "warning")

#: Version stamp of the JSON report and baseline formats.
REPORT_VERSION = 1


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        code: The checker's registry code (``DET001``, ``RC004``, …).
        file: Repo-relative posix path of the offending file.
        line: 1-based line number (best effort for introspection-based
            checkers, which map live objects back to their source).
        severity: ``"error"`` or ``"warning"``.
        message: One-line human explanation of the violation.
    """

    code: str
    file: str
    line: int
    severity: str
    message: str

    def __post_init__(self) -> None:
        require(
            self.severity in SEVERITIES,
            f"finding severity must be one of {', '.join(SEVERITIES)}; "
            f"got {self.severity!r}",
        )

    @property
    def location(self) -> str:
        """``file:line`` (what the text report prints and editors open)."""
        return f"{self.file}:{self.line}"

    def key(self) -> tuple[str, str, int]:
        """The identity a baseline entry matches on."""
        return (self.code, self.file, self.line)


@dataclass(frozen=True, slots=True)
class Checker:
    """One registered static-analysis rule.

    Attributes:
        code: Stable registry key (``<GROUP><NNN>``); what ``--select``/
            ``--ignore`` and suppression comments refer to.
        group: Checker group (``determinism``, ``worker-purity``,
            ``async-hygiene``, ``contracts``).
        severity: Severity stamped on the findings this rule yields.
        summary: One-line description (docs table, ``--help`` listings).
        run: ``SourceTree -> iterable of Finding``.  Introspection-based
            rules may ignore the tree and read the live registries.
    """

    code: str
    group: str
    severity: str
    summary: str
    run: Callable[[SourceTree], Iterable[Finding]]


_CHECKERS: dict[str, Checker] = {}


def register_check(checker: Checker, replace: bool = False) -> None:
    """Register ``checker`` under its code (duplicates fail loudly)."""
    require(bool(checker.code), "checker needs a non-empty code")
    require(
        replace or checker.code not in _CHECKERS,
        f"checker {checker.code!r} is already registered",
    )
    _CHECKERS[checker.code] = checker


def get_check(code: str) -> Checker:
    """The registered checker called ``code`` (unknown codes fail with
    the valid choices listed)."""
    require(
        code in _CHECKERS,
        f"unknown checker {code!r}; registered checkers: "
        f"{', '.join(check_codes())}",
    )
    return _CHECKERS[code]


def check_codes() -> tuple[str, ...]:
    """All registered checker codes, in registration order."""
    return tuple(_CHECKERS)


def check_groups() -> tuple[str, ...]:
    """The distinct checker groups, in first-registration order."""
    groups: dict[str, None] = {}
    for checker in _CHECKERS.values():
        groups.setdefault(checker.group, None)
    return tuple(groups)


def _selected(
    select: Sequence[str] | None, ignore: Sequence[str] | None
) -> list[Checker]:
    """Resolve ``--select``/``--ignore`` terms into concrete checkers.

    A term matches a checker by exact code (``DET001``), by group name
    (``determinism``) or by code prefix (``DET``); unknown terms fail
    loudly so a typo never silently runs nothing.
    """

    def matches(term: str, checker: Checker) -> bool:
        return (
            term == checker.code
            or term == checker.group
            or checker.code.startswith(term)
        )

    def resolve(terms: Sequence[str]) -> list[Checker]:
        resolved: dict[str, Checker] = {}
        for term in terms:
            hits = [c for c in _CHECKERS.values() if matches(term, c)]
            require(
                bool(hits),
                f"unknown checker selection {term!r}; valid codes: "
                f"{', '.join(check_codes())}; valid groups: "
                f"{', '.join(check_groups())}",
            )
            for checker in hits:
                resolved[checker.code] = checker
        return list(resolved.values())

    chosen = (
        resolve(select) if select else list(_CHECKERS.values())
    )
    if ignore:
        dropped = {c.code for c in resolve(ignore)}
        chosen = [c for c in chosen if c.code not in dropped]
    return chosen


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------


def load_baseline(path: Path) -> list[tuple[str, str, int]]:
    """Parse the committed baseline file into finding keys.

    A missing file is an empty baseline; a malformed one fails loudly
    (a silently ignored baseline would un-grandfather every finding).
    """
    if not path.exists():
        return []
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"baseline file {path} is not valid JSON: {exc}"
        ) from exc
    require(
        isinstance(payload, Mapping)
        and payload.get("version") == REPORT_VERSION
        and isinstance(payload.get("findings"), list),
        f"baseline file {path} must be "
        f'{{"version": {REPORT_VERSION}, "findings": [...]}}',
    )
    keys = []
    for entry in payload["findings"]:
        require(
            isinstance(entry, Mapping)
            and isinstance(entry.get("code"), str)
            and isinstance(entry.get("file"), str)
            and isinstance(entry.get("line"), int),
            f"baseline entry {entry!r} needs string code/file and int line",
        )
        keys.append((entry["code"], entry["file"], entry["line"]))
    return keys


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    """Write ``findings`` as the new grandfathered baseline."""
    payload = {
        "version": REPORT_VERSION,
        "findings": [
            {"code": f.code, "file": f.file, "line": f.line}
            for f in findings
        ],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def prune_baseline(
    path: Path, stale: Sequence[tuple[str, str, int]]
) -> int:
    """Drop the ``stale`` entries from the baseline file in place.

    Entries are matched by ``(code, file, line)`` key; surviving
    entries keep every extra field they carry (notably the ``reason``
    comment the committed baseline requires per entry).  Returns the
    number of entries removed.
    """
    if not path.exists() or not stale:
        return 0
    load_baseline(path)  # validate before rewriting
    payload = json.loads(path.read_text())
    doomed = set(stale)
    kept = [
        entry
        for entry in payload["findings"]
        if (entry["code"], entry["file"], entry["line"]) not in doomed
    ]
    removed = len(payload["findings"]) - len(kept)
    payload["findings"] = kept
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return removed


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CheckReport:
    """Outcome of one :func:`run_checks` pass.

    Attributes:
        findings: Violations that survived suppression and the
            baseline, in ``(file, line, code)`` order.
        suppressed: Findings silenced by inline
            ``# repro-check: ignore[CODE]`` comments.
        baselined: Findings matched (and absorbed) by the baseline.
        stale: Baseline entries (``(code, file, line)`` keys, sorted)
            whose finding no longer fires — the baseline is
            self-cleaning, so these fail the pass until pruned
            (``--prune-baseline``).  Only codes that actually ran can
            declare an entry stale.
        codes_run: The checker codes that actually ran.
        files_checked: Files the source tree covered.
    """

    findings: tuple[Finding, ...]
    suppressed: int
    baselined: int
    codes_run: tuple[str, ...]
    files_checked: int
    stale: tuple[tuple[str, str, int], ...] = ()

    @property
    def ok(self) -> bool:
        """Whether the pass is clean (no live findings, no stale
        baseline entries)."""
        return not self.findings and not self.stale

    def to_json(self) -> dict[str, Any]:
        """The JSON report (``--format json``; schema-tested)."""
        return {
            "version": REPORT_VERSION,
            "ok": self.ok,
            "findings": [asdict(f) for f in self.findings],
            "stale": [
                {"code": code, "file": file, "line": line}
                for code, file, line in self.stale
            ],
            "summary": {
                "findings": len(self.findings),
                "suppressed": self.suppressed,
                "baselined": self.baselined,
                "stale": len(self.stale),
                "checks": len(self.codes_run),
                "files": self.files_checked,
            },
        }

    def render_text(self) -> str:
        """The human report (``--format text``, the default)."""
        tail = (
            f"{len(self.codes_run)} check(s), "
            f"{len(self.findings)} finding(s), "
            f"{self.suppressed} suppressed, "
            f"{self.baselined} baselined, "
            f"{self.files_checked} file(s)"
        )
        if self.ok:
            return f"OK: {tail}"
        lines = [
            f"{f.location}: {f.code} [{f.severity}] {f.message}"
            for f in self.findings
        ]
        lines.extend(
            f"{file}:{line}: {code} [stale-baseline] entry no longer "
            "fires; prune it with --prune-baseline"
            for code, file, line in self.stale
        )
        return "\n".join([*lines, tail])


def run_checks(
    tree: SourceTree,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
    baseline: Sequence[tuple[str, str, int]] = (),
) -> CheckReport:
    """Run the selected checkers over ``tree`` and fold the results.

    Suppression: a finding whose source line carries
    ``# repro-check: ignore[CODE]`` (its own code listed) is counted,
    not reported.  Baseline: a finding whose ``(code, file, line)`` key
    appears in ``baseline`` is grandfathered — and a baseline entry
    matching *no* raw finding of a checker that ran is reported stale
    (the baseline may only ever shrink, and it shrinks loudly).
    Everything else is live.
    """
    checkers = _selected(select, ignore)
    raw: list[Finding] = []
    for checker in checkers:
        raw.extend(checker.run(tree))
    baseline_keys = set(baseline)
    findings: list[Finding] = []
    suppressed = 0
    baselined = 0
    matched: set[tuple[str, str, int]] = set()
    for finding in raw:
        if finding.key() in baseline_keys:
            matched.add(finding.key())
        if tree.is_suppressed(finding.file, finding.line, finding.code):
            suppressed += 1
        elif finding.key() in baseline_keys:
            baselined += 1
        else:
            findings.append(finding)
    codes_run = tuple(c.code for c in checkers)
    ran = set(codes_run)
    stale = sorted(
        key
        for key in baseline_keys - matched
        if key[0] in ran
    )
    findings.sort(key=lambda f: (f.file, f.line, f.code))
    return CheckReport(
        findings=tuple(findings),
        suppressed=suppressed,
        baselined=baselined,
        codes_run=codes_run,
        files_checked=len(tree.files),
        stale=tuple(stale),
    )
