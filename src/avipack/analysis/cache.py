"""Per-file result cache for the analyzer.

File-scope rules are pure functions of (file content, import-closure
content, rule set), so cached findings carry **two** fingerprints:

* ``content_fp`` — hash of the file's own source;
* ``dep_fp`` — hash of the (module, content-hash) pairs of everything
  the file transitively imports inside the project, computed from the
  import graph (:meth:`~avipack.analysis.project.ProjectGraph.
  dependency_fingerprint`).

Editing a module therefore invalidates the module *and every file that
can see it through imports* — a blocking helper added three modules
away re-fires AVI008 at the async caller — while untouched, unaffected
files keep their cached findings.

Each entry also stores the file's :class:`~avipack.analysis.project.
ModuleSummary`, keyed on ``content_fp`` alone: summaries describe one
file in isolation, so a warm run rebuilds the whole project graph
without re-parsing a single unchanged file, then uses the graph to
decide which files' *findings* are stale.

The cache stores *raw* rule output (before suppression and baseline
filtering): suppression directives live in the source, so the content
fingerprint covers them, while the baseline file changes independently
and is always applied after the cache.  A cache written by a different
rule set (new rule, bumped ``version``) is discarded wholesale via the
rules signature.  Project-scope rules are never cached.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import InputError
from ..fingerprint import stable_fingerprint
from ..publish import publish
from .findings import Finding
from .project import ModuleSummary

__all__ = ["AnalysisCache"]

_CACHE_VERSION = 2


@dataclass
class _Entry:
    content_fp: str
    dep_fp: str
    summary: Optional[ModuleSummary]
    findings: Tuple[Finding, ...]


class AnalysisCache:
    """Content+dependency-addressed per-file analysis cache."""

    def __init__(self, rules_signature: str) -> None:
        self.rules_signature = rules_signature
        self._entries: Dict[str, _Entry] = {}
        self.hits = 0
        self.misses = 0

    # -- lookup --------------------------------------------------------------

    @staticmethod
    def key_for(source: str) -> str:
        """Content hash a lookup is keyed on."""
        return stable_fingerprint(source)

    def get_summary(self, rel_path: str,
                    content_fp: str) -> Optional[ModuleSummary]:
        """Cached module summary for this exact content, else ``None``."""
        entry = self._entries.get(rel_path)
        if entry is None or entry.content_fp != content_fp:
            return None
        return entry.summary

    def get_findings(self, rel_path: str, content_fp: str,
                     dep_fp: str) -> Optional[Tuple[Finding, ...]]:
        """Cached raw findings when neither the file nor anything it
        imports changed, else ``None``."""
        entry = self._entries.get(rel_path)
        if entry is None or entry.content_fp != content_fp \
                or entry.dep_fp != dep_fp:
            self.misses += 1
            return None
        self.hits += 1
        return entry.findings

    def put(self, rel_path: str, content_fp: str, dep_fp: str,
            summary: Optional[ModuleSummary],
            findings: Tuple[Finding, ...]) -> None:
        """Store the full record for the current state of ``rel_path``."""
        self._entries[rel_path] = _Entry(content_fp, dep_fp, summary,
                                         findings)

    # -- compatibility shims (tests and older callers) ----------------------

    def get(self, rel_path: str,
            source: str) -> Optional[Tuple[Finding, ...]]:
        """Content-only lookup (ignores dependencies; legacy shape)."""
        entry = self._entries.get(rel_path)
        if entry is None or entry.content_fp != self.key_for(source):
            self.misses += 1
            return None
        self.hits += 1
        return entry.findings

    # -- persistence ---------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """JSON-compatible encoding of the whole cache."""
        return {
            "version": _CACHE_VERSION,
            "rules_signature": self.rules_signature,
            "entries": {
                rel_path: {
                    "content_fp": entry.content_fp,
                    "dep_fp": entry.dep_fp,
                    "summary": (entry.summary.to_dict()
                                if entry.summary is not None else None),
                    "findings": [finding.to_dict()
                                 for finding in entry.findings],
                }
                for rel_path, entry in sorted(self._entries.items())
            },
        }

    @classmethod
    def from_payload(cls, payload: object,
                     rules_signature: str) -> "AnalysisCache":
        """Rebuild a cache, discarding it on any mismatch or damage."""
        cache = cls(rules_signature)
        if not isinstance(payload, dict):
            return cache
        if payload.get("version") != _CACHE_VERSION:
            return cache
        if payload.get("rules_signature") != rules_signature:
            return cache
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            return cache
        try:
            for rel_path, entry in entries.items():
                findings = tuple(Finding.from_dict(record)
                                 for record in entry["findings"])
                summary = (ModuleSummary.from_dict(entry["summary"])
                           if entry.get("summary") is not None else None)
                cache._entries[rel_path] = _Entry(
                    str(entry["content_fp"]), str(entry["dep_fp"]),
                    summary, findings)
        except (InputError, KeyError, TypeError):
            return cls(rules_signature)  # damaged file: start cold
        return cache

    def save(self, path: str) -> None:
        """Write the cache to ``path`` as JSON (atomic + durable)."""
        publish(path, (json.dumps(self.to_payload(), indent=1,
                                  sort_keys=True) + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path: str, rules_signature: str) -> "AnalysisCache":
        """Read a cache file; any problem yields an empty cache."""
        if not os.path.exists(path):
            return cls(rules_signature)
        try:
            with open(path, encoding="utf-8") as stream:
                payload = json.load(stream)
        except (OSError, ValueError):
            return cls(rules_signature)
        return cls.from_payload(payload, rules_signature)

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> List[str]:
        """Paths currently cached (test/debug helper)."""
        return sorted(self._entries)
