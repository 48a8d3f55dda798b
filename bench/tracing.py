"""Spans around the public calls of each treefactor layer.

The tracer replaces, for the length of a traced pass, the module
attributes that callers look up at call time, and restores them after.
Only coarse calls are wrapped, never a per-sample function.  A boundary
attribute that no longer exists stops the run instead of reporting zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Optional, Union

CLI = "treefactor.cli"
PROCESSES = "treefactor.processes"
BOUNDS = "treefactor.bounds"


class BoundaryError(RuntimeError):
    """A traced boundary is missing, or the spans do not cover the run."""


def _gaussian_span(args: tuple, kwargs: dict) -> str:
    samples = kwargs["samples"] if "samples" in kwargs else args[2]
    return "processes.gaussian_mc" if samples > 0 else "processes.gaussian_closed_form"


@dataclass(frozen=True)
class Boundary:
    name: Union[str, Callable[[tuple, dict], str]]  # span name, or a function of the call's arguments
    sites: tuple[tuple[str, str], ...]  # (module, attribute) pairs the callers look up
    count: Optional[Callable[[Any], int]] = None  # work done, read from the return value


BOUNDARIES = (
    Boundary("cli.main", ((CLI, "main"),)),
    Boundary("words.build_generators", ((CLI, "build_generators"),)),
    Boundary("words.verify_free_claim", ((CLI, "verify_free_claim"),), lambda r: r.checked),
    Boundary("words.verify_coset_factorization", ((CLI, "verify_coset_factorization"),),
             lambda r: r.checked),
    Boundary("tree.region_from_balls", ((PROCESSES, "region_from_balls"),),
             lambda r: len(r.vertices)),
    Boundary("processes.measurement_from_joint", ((PROCESSES, "measurement_from_joint"),)),
    Boundary("information.maximal_correlation", (("treefactor.information", "maximal_correlation"),)),
    Boundary("processes.exact_joint", ((CLI, "exact_joint"),)),
    Boundary("processes.mc_joint", ((CLI, "mc_joint"),), lambda r: r.samples),
    Boundary(_gaussian_span, ((CLI, "gaussian_sign_measure"),), lambda r: r.samples or 0),
    Boundary("processes.random_regular_graph",
             ((CLI, "random_regular_graph"), (PROCESSES, "random_regular_graph"))),
    Boundary("processes.short_cycle_count", ((CLI, "short_cycle_count"),)),
    Boundary("processes.sparse_set_labeling",
             ((CLI, "sparse_set_labeling"), (PROCESSES, "sparse_set_labeling")), lambda r: r.rounds),
    Boundary("processes.sparse_coloring",
             ((CLI, "sparse_coloring"), (PROCESSES, "sparse_coloring")), lambda r: r.rounds),
    # Only the CLI's own re-checks: the library's internal checks stay inside the dynamics.
    Boundary("processes.check_sparse_set", ((CLI, "check_sparse_set"),)),
    Boundary("processes.check_sparse_coloring", ((CLI, "check_sparse_coloring"),)),
    Boundary("processes.listing_finite_N_mi", ((PROCESSES, "listing_finite_N_mi"),)),
    Boundary("bounds.universal_verdict", ((BOUNDS, "universal_verdict"),)),
    Boundary("bounds.fixed_process_verdict", ((BOUNDS, "fixed_process_verdict"),)),
    Boundary("bounds.sharpness_report", ((BOUNDS, "sharpness_report"),)),
)


@dataclass
class Span:
    name: str
    job: str
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    count: int = 0


class Tracer:
    """Records spans while installed; use as a context manager around a pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = ""
        self._open: list[int] = []
        self._installed: list[tuple[Any, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        resolved = []
        for boundary in BOUNDARIES:
            for module_name, attr in boundary.sites:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    raise BoundaryError(f"traced boundary {module_name}.{attr} is missing")
                resolved.append((module, attr, fn, boundary))
        for module, attr, fn, boundary in resolved:
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(boundary, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = boundary.name if isinstance(boundary.name, str) else boundary.name(args, kwargs)
            span = Span(name, self.job, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if boundary.count is not None:
                span.count = boundary.count(result)
            return result

        return traced

    def root_seconds(self, first: int) -> float:
        """Time covered by the root spans recorded from index ``first`` on."""
        return sum(s.end - s.start for s in self.spans[first:] if s.parent is None)

    def to_json_obj(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


@dataclass
class LayerStat:
    self_s: float = 0.0
    count: int = 0
    calls: int = 0


def aggregate(spans: list[Span]) -> dict[str, LayerStat]:
    """Self time (duration minus the time its child spans cover), summed
    work counts and call counts, per span name."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    stats: dict[str, LayerStat] = defaultdict(LayerStat)
    for s, inner in zip(spans, child_s):
        stat = stats[s.name]
        stat.self_s += s.end - s.start - inner
        stat.count += s.count
        stat.calls += 1
    return stats


def layer_metrics(spans: list[Span], passes: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics, per traced pass."""
    stats = aggregate(spans)

    def secs(*names: str) -> float:
        return sum(stats[n].self_s for n in names) / passes

    def count(*names: str) -> float:
        return sum(stats[n].count for n in names) / passes

    def rate(*names: str) -> float:
        busy = secs(*names)
        return count(*names) / busy if busy > 0 else 0.0

    sparse = ("processes.sparse_set_labeling", "processes.sparse_coloring")
    return {
        "words.verify_free_claim_s": secs("words.verify_free_claim"),
        "words.sequences_checked": count("words.verify_free_claim"),
        "words.verify_coset_factorization_s": secs("words.verify_coset_factorization"),
        "words.products_checked": count("words.verify_coset_factorization"),
        "words.build_generators_s": secs("words.build_generators"),
        "tree.region_from_balls_s": secs("tree.region_from_balls"),
        "tree.region_vertices": count("tree.region_from_balls"),
        "information.stats_s": secs("processes.measurement_from_joint"),
        "information.maximal_correlation_s": secs("information.maximal_correlation"),
        "information.maximal_correlation_calls":
            stats["information.maximal_correlation"].calls / passes,
        "processes.exact_joint_s": secs("processes.exact_joint"),
        "processes.exact_calls": stats["processes.exact_joint"].calls / passes,
        "processes.mc_joint_s": secs("processes.mc_joint"),
        "processes.mc_samples_per_s": rate("processes.mc_joint"),
        "processes.gaussian_mc_s": secs("processes.gaussian_mc"),
        "processes.gaussian_samples_per_s": rate("processes.gaussian_mc"),
        "processes.gaussian_closed_form_s": secs("processes.gaussian_closed_form"),
        "processes.random_regular_graph_s": secs("processes.random_regular_graph"),
        "processes.short_cycle_count_s": secs("processes.short_cycle_count"),
        "processes.sparse_set_labeling_s": secs("processes.sparse_set_labeling"),
        "processes.sparse_coloring_s": secs("processes.sparse_coloring"),
        "processes.sparse_rounds": count(*sparse),
        "processes.rounds_per_s": rate(*sparse),
        "processes.sparse_checks_s":
            secs("processes.check_sparse_set", "processes.check_sparse_coloring"),
        "processes.listing_finite_N_mi_s": secs("processes.listing_finite_N_mi"),
        "bounds.verdicts_s": secs("bounds.universal_verdict", "bounds.fixed_process_verdict"),
        "bounds.sharpness_report_s": secs("bounds.sharpness_report"),
        "cli.main_self_s": secs("cli.main"),
        "trace.overhead_s": overhead_s,
    }
