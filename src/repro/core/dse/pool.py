"""Process-pool pricing workers for the explorer.

Variant pricing is pure Python (pass pipeline + HLS), so a thread pool
is GIL-bound and only overlaps the rare I/O. With
``workers_mode="process"`` the explorer hands the cache misses of a
batch to child processes instead. Nothing but the pricing leaves the
parent — :func:`repro.core.dse.cost_model._evaluate_batch` does the
static gate and the cost-cache get/put on the calling thread in every
mode — so results and cost-cache *accounting* are byte-identical to a
serial run at every worker count:

* Work units are picklable and keyed by the source module's content
  digest. Each worker parses the printed module text exactly once (in
  the pool initializer) and then prices knob points with
  :func:`repro.core.dse.cost_model.price_variant` — the cache-free
  pricing core the parent runs inline for a serial batch.
* Each priced point returns the worker's prepared-module cache stats
  delta, which the parent folds into its own stats
  (:meth:`repro.core.store.CacheStats.add`), so published hit
  ratios account for child work. Lookups add up to the serial count;
  the hit/miss split does not: points that run the same pass pipeline
  share one prepared module *per process*, so a pipeline is a miss
  once in every child that meets it.

Pricing in the child runs under a muted observation, mirroring the
explorer's hermetic-batch rule: worker processes must never contribute
trace spans or metrics of their own.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Any, Dict, Tuple

from repro.core.dse.cache import prepared_cache
from repro.core.dse.cost_model import price_variant
from repro.core.ir.parser import parse_module
from repro.core.store import CacheStats
from repro.core.variants import CostEstimate, VariantKnobs
from repro.obs import Observation, observe

#: Per-process worker state, set once by :func:`_init_worker`: the
#: pricing function over this process's copy of the module.
_STATE: Dict[str, Any] = {}


def create_pool(
    workers: int,
    module_text: str,
    digest: str,
    kernel: str,
    model: Any,
) -> ProcessPoolExecutor:
    """A process pool whose workers hold a parsed copy of the module.

    Prefers the ``fork`` start method where available (cheap, and the
    child inherits the parent's warm prepared-module cache, mirroring
    the state a serial run would see); falls back to the platform
    default (``spawn``) otherwise, where the initializer re-parses the
    shipped module text.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    else:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_init_worker,
        initargs=(module_text, digest, kernel, model),
    )


def _init_worker(
    module_text: str, digest: str, kernel: str, model: Any
) -> None:
    """Parse the module once per worker process."""
    _STATE["price"] = partial(
        price_variant, parse_module(module_text), kernel,
        model=model, digest=digest,
    )


def price_point(
    knobs: VariantKnobs,
) -> Tuple[CostEstimate, CacheStats]:
    """Price one knob point in a worker process.

    Returns the estimate plus the prepared-cache stats delta this
    pricing caused in the worker, for the parent to merge.
    """
    before = prepared_cache().stats.snapshot()
    with observe(Observation()):
        cost = _STATE["price"](knobs)
    delta = prepared_cache().stats.delta(before)
    return cost, delta
