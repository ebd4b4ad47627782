"""Digest-keyed incremental cache for static-analysis results.

The analysis gate (verification + taint + partition + absint + lints)
would re-run from scratch on every compile and every ``repro lint``.
This module memoizes it in the same
:class:`~repro.core.store.ContentStore` the DSE layer memoizes
synthesis in (:mod:`repro.core.dse.cache`), keyed by *content*:

* :meth:`AnalysisCache.module_key` — the structural module digest,
  used by the compiler's pre-DSE ``static_checks`` gate;
* :meth:`AnalysisCache.source_key` — the raw spec text, used by
  ``repro lint --incremental`` (the driver in
  :mod:`repro.core.analysis.specs`) so a warm run skips parsing and
  compiling the spec entirely, not just the analyses;
* :meth:`AnalysisCache.perf_key` — one kernel's static bounds.

Every recipe folds in :data:`ANALYSIS_CACHE_VERSION` (payload layout),
:data:`~repro.core.analysis.absint.ANALYSIS_VERSION` (the analyses'
semantics) and the IR digest version, so stale results never survive
an upgrade. Payloads hold rendered diagnostics and facts (kind
``"analysis"``) or bounds (kind ``"perf"``, which the bounds record
carries), the records in the store's codec
(:func:`repro.core.store.encode` / :func:`~repro.core.store.decode`).
"""

from __future__ import annotations

import hashlib
import os
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.core.analysis.absint import ANALYSIS_VERSION
from repro.core.ir.digest import DIGEST_VERSION
from repro.core.store import ContentStore, xdg_cache_dir

#: Part of every analysis key: bump when a key recipe or payload layout
#: changes incompatibly, and old entries can never match again ("2":
#: facts in the store's codec, index bounds as JSON numbers).
ANALYSIS_CACHE_VERSION = "2"


class AnalysisCache(ContentStore):
    """The store's ``"analysis"`` and ``"perf"`` kinds: JSON objects.
    :func:`repro.core.analysis.analyze_module_cached`, the perf
    analyzer and :func:`repro.core.analysis.specs.lint_files` decode
    their records inside :meth:`read`, so a payload the decoder
    rejects is a miss."""

    @staticmethod
    def _key(kind: str, material: Sequence[str]) -> str:
        joined = "\x1f".join((
            f"analysis-cache-v{ANALYSIS_CACHE_VERSION}",
            f"analysis-v{ANALYSIS_VERSION}",
            f"ir-v{DIGEST_VERSION}",
            kind,
            *material,
        ))
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()

    @staticmethod
    def module_key(module_digest: str,
                   checks: Sequence[str] = (),
                   annotate: bool = False) -> str:
        """Key for ``analyze_module`` results on one IR module."""
        return AnalysisCache._key("module", (
            module_digest, ",".join(sorted(checks)), repr(bool(annotate)),
        ))

    @staticmethod
    def source_key(text: str, checks: Sequence[str] = ()) -> str:
        """Key for whole-spec lint results, by raw source text."""
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return AnalysisCache._key("source", (
            digest, ",".join(sorted(checks)),
        ))

    @staticmethod
    def perf_key(module_digest: str, kernel: str) -> str:
        """Key for one kernel's static performance bounds."""
        return AnalysisCache._key("perf", (module_digest, kernel))

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store one payload under the kind it marks itself with."""
        self.write(key, str(payload.get("kind", "analysis")), payload)


# ---------------------------------------------------------------------
# Process-wide default instance (what the compiler gate and CLI use).

_analysis = AnalysisCache()
_config_lock = threading.Lock()


def default_analysis_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro-analysis`` or the ``~/.cache`` fallback."""
    return xdg_cache_dir("repro-analysis")


def analysis_cache() -> AnalysisCache:
    """The process-wide analysis cache."""
    return _analysis


def configure_analysis_cache(
    cache_dir: Optional[os.PathLike] = None,
) -> AnalysisCache:
    """Reconfigure the process-wide cache; returns the new instance.

    ``cache_dir=None`` keeps it memory-only (the library default);
    ``repro lint --incremental`` passes
    :func:`default_analysis_cache_dir` so repeated invocations share
    one persistent store.
    """
    global _analysis
    with _config_lock:
        _analysis = AnalysisCache(cache_dir)
        return _analysis
