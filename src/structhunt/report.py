"""Structured pass/fail reports with margins.

Validators in this package never answer with a bare boolean: at desk scale
many inequalities fail by small margins and the pipeline needs to see them.
A Report is an ordered list of CheckItems, each carrying the measured value,
the required bound and a tri-state verdict (True / False / None for
informational items that are reported but not asserted).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return "%d/%d" % (x.numerator, x.denominator) if x.denominator != 1 else str(x.numerator)
    if isinstance(x, frozenset):
        return "{" + ",".join(str(i) for i in sorted(x)) + "}"
    return str(x)


@dataclass
class CheckItem:
    item: str
    passed: Optional[bool]
    measured: Any = None
    needed: Any = None
    note: str = ""

    def render(self) -> str:
        verdict = {True: "pass", False: "FAIL", None: "info"}[self.passed]
        parts = ["%s: %s" % (self.item, verdict)]
        if self.measured is not None:
            parts.append("measured=%s" % _fmt(self.measured))
        if self.needed is not None:
            parts.append("needed=%s" % _fmt(self.needed))
        if self.note:
            parts.append("(%s)" % self.note)
        return " ".join(parts)


@dataclass
class Report:
    title: str = ""
    items: list = field(default_factory=list)

    def add(self, item, passed, measured=None, needed=None, note="") -> CheckItem:
        ci = CheckItem(item, passed, measured, needed, note)
        self.items.append(ci)
        return ci

    def check_ge(self, item, measured, needed, note="") -> CheckItem:
        from .exactmath import cmp_ge

        return self.add(item, cmp_ge(measured, needed), measured, needed, note)

    def check_le(self, item, measured, needed, note="") -> CheckItem:
        from .exactmath import cmp_le

        return self.add(item, cmp_le(measured, needed), measured, needed, note)

    def info(self, item, measured=None, note="") -> CheckItem:
        return self.add(item, None, measured, None, note)

    def extend(self, other: "Report", prefix: str = "") -> None:
        for ci in other.items:
            self.items.append(CheckItem(prefix + ci.item, ci.passed, ci.measured,
                                        ci.needed, ci.note))

    def __getitem__(self, item_name: str) -> CheckItem:
        for ci in self.items:
            if ci.item == item_name:
                return ci
        raise KeyError(item_name)

    @property
    def ok(self) -> bool:
        """True iff no item failed (informational items do not count)."""
        return all(ci.passed is not False for ci in self.items)

    def failures(self) -> list:
        return [ci for ci in self.items if ci.passed is False]

    def render(self) -> str:
        lines = []
        if self.title:
            lines.append("== %s ==" % self.title)
        lines.extend(ci.render() for ci in self.items)
        return "\n".join(lines)
