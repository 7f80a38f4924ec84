"""Source-tree loading for the static-analysis pass.

One :class:`SourceTree` is parsed per ``repro check`` run and shared by
every checker: each covered file is read, AST-parsed and scanned for
inline suppression comments exactly once, so adding a checker never
adds a parse pass.  The tree also owns the object-to-location mapping
the introspection-based checkers (worker purity, registry contracts)
use to anchor findings on real ``file:line`` positions.

Suppression grammar: a line containing ``# repro-check:
ignore[CODE]`` (one code, or several comma-separated) silences exactly
those codes on exactly that line.  There is no file-level or wildcard
form — a suppression documents one reviewed false positive, not a
blanket opt-out — and :func:`repro.checks.model.run_checks` counts
every use so the report keeps them visible.
"""

from __future__ import annotations

import ast
import inspect
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.utils.checks import require

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.checks.callgraph import CallGraph

#: Directories (repo-relative) a default tree covers.
DEFAULT_SUBDIRS = ("src/repro", "examples")

#: The inline suppression marker: ``# repro-check: ignore[DET001]``.
_SUPPRESSION = re.compile(r"#\s*repro-check:\s*ignore\[([A-Z0-9, ]+)\]")


def _scan_suppressions(lines: list[str]) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the codes suppressed on them."""
    found: dict[int, frozenset[str]] = {}
    for number, line in enumerate(lines, start=1):
        match = _SUPPRESSION.search(line)
        if match is not None:
            codes = frozenset(
                code.strip()
                for code in match.group(1).split(",")
                if code.strip()
            )
            if codes:
                found[number] = codes
    return found


@dataclass(frozen=True, slots=True)
class SourceFile:
    """One parsed file of the tree.

    Attributes:
        path: Absolute filesystem path.
        rel: Repo-relative posix path (what findings report).
        text: Raw file contents.
        lines: The contents split into lines (1-based via index+1).
        suppressions: ``line -> codes`` inline suppression map.
        tree: The parsed ``ast.Module``.
    """

    path: Path
    rel: str
    text: str
    lines: list[str]
    suppressions: dict[int, frozenset[str]]
    tree: ast.Module = field(repr=False, compare=False)


@dataclass(frozen=True)
class SourceTree:
    """Every file one ``repro check`` pass covers, parsed once.

    Attributes:
        root: Repository root the relative paths hang off.
        files: The parsed files, in sorted path order.
    """

    root: Path
    files: tuple[SourceFile, ...]
    _by_rel: dict[str, SourceFile] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _graph: list = field(
        init=False, repr=False, compare=False, default_factory=list
    )

    def __post_init__(self) -> None:
        self._by_rel.update({f.rel: f for f in self.files})

    def file(self, rel: str) -> SourceFile | None:
        """The parsed file at repo-relative ``rel``, if covered."""
        return self._by_rel.get(rel)

    def callgraph(self) -> CallGraph:
        """The interprocedural call graph, built once per tree."""
        if not self._graph:
            from repro.checks.callgraph import build_graph

            self._graph.append(build_graph(self))
        return self._graph[0]

    def is_suppressed(self, rel: str, line: int, code: str) -> bool:
        """Whether ``code`` is suppressed on ``rel:line``."""
        covered = self._by_rel.get(rel)
        if covered is None:
            return False
        return code in covered.suppressions.get(line, frozenset())

    # ------------------------------------------------------------------
    # locating live objects (introspection-based checkers)
    # ------------------------------------------------------------------

    def locate(self, obj: Any) -> tuple[str, int]:
        """Best-effort ``(rel_path, line)`` of a live object.

        Introspection-based checkers anchor findings about registered
        objects (scenario dataclasses, worker functions, workload
        entries) on the object's definition site.  Objects defined
        outside the tree (REPLs, test fabrications) fall back to the
        object's module name at line 1 so the finding still renders.
        """
        try:
            path = Path(inspect.getsourcefile(obj) or "")
            line = inspect.getsourcelines(obj)[1]
        except (TypeError, OSError):
            return (getattr(obj, "__module__", str(obj)) or str(obj), 1)
        try:
            rel = path.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            rel = path.name
        return (rel, line)


def parse_file(path: Path, rel: str) -> SourceFile:
    """Read and parse one file into a :class:`SourceFile`."""
    text = path.read_text()
    lines = text.splitlines()
    return SourceFile(
        path=path,
        rel=rel,
        text=text,
        lines=lines,
        suppressions=_scan_suppressions(lines),
        tree=ast.parse(text, filename=str(path)),
    )


def load_tree(
    root: Path, subdirs: tuple[str, ...] = DEFAULT_SUBDIRS
) -> SourceTree:
    """Parse every ``*.py`` file under ``root``'s covered subdirs."""
    root = Path(root)
    require(root.is_dir(), f"check root {root} is not a directory")
    files: list[SourceFile] = []
    for subdir in subdirs:
        base = root / subdir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            files.append(parse_file(path, rel))
    return SourceTree(root=root, files=tuple(files))


def repo_root() -> Path:
    """The repository root inferred from the installed package layout.

    The source layout is ``<root>/src/repro/...``; walking two levels
    up from the package lands on ``<root>``.  Callers needing a
    different root (tests over fixture trees) pass one explicitly.
    """
    import repro

    return Path(repro.__file__).resolve().parents[2]


def dotted_name(node: ast.AST) -> str | None:
    """The dotted name of a ``Name``/``Attribute`` chain, if it is one.

    ``time.sleep`` → ``"time.sleep"``; anything rooted in a call or
    subscript (``foo().bar``) yields ``None`` — the checkers match
    known module-level names, not arbitrary expressions.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))
