"""Baseline file: grandfathered findings that do not gate CI.

When a new rule lands, pre-existing violations that are not worth fixing
immediately are recorded in a checked-in JSON baseline
(``analysis-baseline.json`` at the repo root).  A finding matching a
baseline entry is reported separately and does not fail the run; a new
violation — even an identical one in a *different* function — does.

Matching is by :meth:`Finding.baseline_key`
(``rule_id, path, symbol, message``), deliberately excluding line
numbers so unrelated edits above a grandfathered finding do not break
CI.  Matching is multiset-style: two identical findings need two
baseline entries, so deleting one of two grandfathered violations
cannot hide a regression of the other.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import Counter as CounterType
from typing import Dict, Iterable, List, Tuple

from ..errors import InputError
from ..publish import publish
from .findings import Finding

__all__ = ["Baseline"]

_BASELINE_VERSION = 1
_KeyType = Tuple[str, str, str, str]


class Baseline:
    """Set of grandfathered findings, matched by stable key."""

    def __init__(self, findings: Iterable[Finding] = ()) -> None:
        self._budget: CounterType[_KeyType] = Counter(
            finding.baseline_key() for finding in findings)
        self._records = tuple(findings)

    def __len__(self) -> int:
        return sum(self._budget.values())

    def partition(self, findings: Iterable[Finding]
                  ) -> Tuple[List[Finding], List[Finding]]:
        """Split ``findings`` into (active, baselined) lists."""
        remaining = Counter(self._budget)
        active: List[Finding] = []
        baselined: List[Finding] = []
        for finding in findings:
            key = finding.baseline_key()
            if remaining[key] > 0:
                remaining[key] -= 1
                baselined.append(finding)
            else:
                active.append(finding)
        return active, baselined

    # -- persistence ---------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        return {
            "version": _BASELINE_VERSION,
            "findings": [finding.to_dict() for finding in sorted(
                self._records,
                key=lambda f: (f.path, f.rule_id, f.line, f.message))],
        }

    def save(self, path: str) -> None:
        publish(path, (json.dumps(self.to_payload(), indent=1,
                                  sort_keys=True) + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path: str) -> "Baseline":
        """Read a baseline file (strict: a damaged baseline is an error).

        Unlike the result cache, a baseline silently treated as empty
        would *fail* CI with noise — or worse, silently pass a run that
        should gate — so damage raises
        :class:`~avipack.errors.InputError` instead of degrading.
        """
        if not os.path.exists(path):
            raise InputError(f"baseline file not found: {path}")
        try:
            with open(path, encoding="utf-8") as stream:
                payload = json.load(stream)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read baseline {path}: {exc}") from exc
        if (not isinstance(payload, dict)
                or payload.get("version") != _BASELINE_VERSION
                or not isinstance(payload.get("findings"), list)):
            raise InputError(f"malformed baseline file: {path}")
        return cls(tuple(Finding.from_dict(record)
                         for record in payload["findings"]))
