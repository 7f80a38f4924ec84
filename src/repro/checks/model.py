"""The static-analysis core: findings, the checker registry, reports.

A *checker* is one named, registered rule (``DET001``, ``WP002``,
``ASY001``, ``RC005``…) that inspects the repository — its parsed
source tree, its live registries, or both — and yields
:class:`Finding` values.  :func:`run_checks` evaluates a selected set
of checkers against one :class:`~repro.checks.source.SourceTree`,
applies inline suppressions (``# repro-check: ignore[CODE]``), and
returns a :class:`CheckReport` the CLI renders as text, JSON or SARIF.

The registry mirrors the repo's other registries (scenario families,
workloads): checkers register at import time under a
stable code, duplicates fail loudly, and frontends enumerate
:func:`check_codes` rather than hard-coding the rule set — which is
also what keeps the generated checker table in ``docs/api.md`` honest.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass
from typing import Any

from repro.checks.source import SourceTree
from repro.utils.checks import require

#: Finding severities, mildest last.
SEVERITIES = ("error", "warning")

#: Version stamp of the JSON report format.
REPORT_VERSION = 2

#: What a rule body yields: one ``(file, line, message)`` per finding.
Hits = Iterator[tuple[str, int, str]]


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        code: The checker's registry code (``DET001``, ``RC005``, …).
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
        """The finding's identity: ``(code, file, line)``."""
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


def rule(
    code: str, group: str, summary: str, severity: str = "error"
) -> Callable[[Callable[..., Hits]], Callable[..., Iterator[Finding]]]:
    """Register the decorated rule body under ``code``.

    The body yields ``(file, line, message)``; the registered (and
    returned) function stamps each as a :class:`Finding` of this code
    and severity.  Extra arguments pass through, so registry-driven
    rules can take fabricated subjects in tests.
    """

    def register(body: Callable[..., Hits]) -> Callable[..., Iterator[Finding]]:
        @functools.wraps(body)
        def run(tree: SourceTree, *args: Any, **kwargs: Any) -> Iterator[Finding]:
            for file, line, message in body(tree, *args, **kwargs):
                yield Finding(code, file, line, severity, message)

        register_check(Checker(code, group, severity, summary, run))
        return run

    return register


def registered_families() -> list[Any]:
    """The live scenario-family registry, which the registry-driven rules
    check unless a test hands them fabricated families."""
    from repro.engine.registry import family_names, get_family

    return [get_family(name) for name in family_names()]


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
# running
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CheckReport:
    """Outcome of one :func:`run_checks` pass.

    Attributes:
        findings: Violations that survived suppression, in
            ``(file, line, code)`` order.
        suppressed: Findings silenced by inline
            ``# repro-check: ignore[CODE]`` comments.
        codes_run: The checker codes that actually ran.
        files_checked: Files the source tree covered.
    """

    findings: tuple[Finding, ...]
    suppressed: int
    codes_run: tuple[str, ...]
    files_checked: int

    @property
    def ok(self) -> bool:
        """Whether the pass is clean (no live findings)."""
        return not self.findings

    def to_json(self) -> dict[str, Any]:
        """The JSON report (``--format json``; schema-tested)."""
        return {
            "version": REPORT_VERSION,
            "ok": self.ok,
            "findings": [asdict(f) for f in self.findings],
            "summary": {
                "findings": len(self.findings),
                "suppressed": self.suppressed,
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
            f"{self.files_checked} file(s)"
        )
        if self.ok:
            return f"OK: {tail}"
        lines = [
            f"{f.location}: {f.code} [{f.severity}] {f.message}"
            for f in self.findings
        ]
        return "\n".join([*lines, tail])


def run_checks(
    tree: SourceTree,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> CheckReport:
    """Run the selected checkers over ``tree`` and fold the results.

    A finding whose source line carries ``# repro-check: ignore[CODE]``
    (its own code listed) is counted as suppressed, not reported;
    everything else is live.
    """
    checkers = _selected(select, ignore)
    findings: list[Finding] = []
    suppressed = 0
    for checker in checkers:
        for finding in checker.run(tree):
            if tree.is_suppressed(finding.file, finding.line, finding.code):
                suppressed += 1
            else:
                findings.append(finding)
    findings.sort(key=lambda f: (f.file, f.line, f.code))
    return CheckReport(
        findings=tuple(findings),
        suppressed=suppressed,
        codes_run=tuple(c.code for c in checkers),
        files_checked=len(tree.files),
    )
