"""SARIF 2.1.0 output for the checks pass (GitHub code scanning).

``--format sarif`` renders a :class:`~repro.checks.model.CheckReport`
as a Static Analysis Results Interchange Format log, the shape
GitHub's ``upload-sarif`` action ingests to surface findings as
code-scanning annotations on the offending lines of a pull request.

The emitter stays deliberately minimal — one run, one tool driver,
one rule per registered checker code that ran, one result per live
finding — and uses only required-plus-stable properties, so the
output validates against the 2.1.0 schema (asserted structurally in
``tests/checks/test_sarif.py``) without depending on any SARIF
library.  Relative paths are emitted against the ``SRCROOT`` URI base
so the log is machine-independent: CI sets the base to the checkout
root.
"""

from __future__ import annotations

from typing import Any

from repro import __version__
from repro.checks.model import CheckReport, get_check

#: The canonical 2.1.0 schema URI GitHub's ingestion accepts.
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

SARIF_VERSION = "2.1.0"

#: Finding severity → SARIF result/configuration level.
_LEVELS = {"error": "error", "warning": "warning"}

__all__ = ["SARIF_SCHEMA", "SARIF_VERSION", "report_to_sarif"]


def report_to_sarif(report: CheckReport) -> dict[str, Any]:
    """The SARIF 2.1.0 log of one checks report.

    Every code in ``report.codes_run`` becomes a driver rule (so a
    clean run still advertises what was checked), every live finding
    a result; suppressed findings are absent by design —
    code scanning should mirror exactly what fails the pass.
    """
    rules = []
    rule_index = {}
    for index, code in enumerate(report.codes_run):
        checker = get_check(code)
        rule_index[code] = index
        rules.append(
            {
                "id": code,
                "shortDescription": {"text": checker.summary},
                "defaultConfiguration": {
                    "level": _LEVELS[checker.severity]
                },
                "properties": {"group": checker.group},
            }
        )
    results = []
    for finding in report.findings:
        results.append(
            {
                "ruleId": finding.code,
                "ruleIndex": rule_index[finding.code],
                "level": _LEVELS[finding.severity],
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.file,
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {"startLine": finding.line},
                        }
                    }
                ],
            }
        )
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-checks",
                        "informationUri": (
                            "https://example.invalid/repro-checks"
                        ),
                        "version": __version__,
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {
                        "description": {
                            "text": "repository checkout root"
                        }
                    }
                },
                "results": results,
                "columnKind": "unicodeCodePoints",
            }
        ],
    }
