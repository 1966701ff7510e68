"""Uniform pass/fail reports for the package's consistency checks, and
the rule every record that checks its own fields follows.

kalvar's records are named tuples: immutable, cheap to build, and
cheap to import.  A record with a rule on its fields is a subclass of
its NamedTuple fields that checks them in `__new__`, with `Validated`
first among its bases, so that `_make` and `_replace` check them too.
"""

from __future__ import annotations

from typing import Any, NamedTuple


class Validated:
    """First base of a record whose `__new__` checks its fields.  A
    NamedTuple's own `_make` builds with `tuple.__new__`, and its
    `_replace` calls `_make`, so both would skip the check; here
    `_make` goes through the constructor."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _CheckReportFields(NamedTuple):
    check: str
    params: dict[str, Any]
    details: list[Any]
    data: dict[str, Any]


class CheckReport(_CheckReportFields):
    """Outcome of one named check.

    params holds the inputs that identify the run, details holds
    structured findings, data holds check-specific payload such as
    per-degree tables.  details and data default to a new empty list and
    dict on every call.  The verdict is read off the findings: a check
    passes exactly when details is empty.
    """

    __slots__ = ()

    def __new__(
        cls,
        check: str,
        params: dict[str, Any],
        details: list[Any] | None = None,
        data: dict[str, Any] | None = None,
    ):
        details = [] if details is None else details
        data = {} if data is None else data
        return tuple.__new__(cls, (check, params, details, data))

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
