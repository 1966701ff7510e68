"""Uniform pass/fail reports for the package's consistency checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class CheckReport:
    """Outcome of one named check.

    params holds the inputs that identify the run, details holds
    structured findings, data holds check-specific payload such as
    per-degree tables.  The verdict is read off the findings: a check
    passes exactly when details is empty.
    """

    check: str
    params: dict[str, Any]
    details: list[Any] = field(default_factory=list)
    data: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.details

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


class CheckFailure(Exception):
    """Raised when an internal consistency check fails hard enough that
    the requested object cannot be trusted.  Carries the report."""

    def __init__(self, report: CheckReport):
        self.report = report
        super().__init__(f"{report.check} failed: {report.details[:3]}")
