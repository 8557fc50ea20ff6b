"""Span recording around foxcolor's public functions, from outside the library.

Callers bind library names with `from .x import y`, so installing a
wrapper replaces the function in every loaded foxcolor module that binds
it, and uninstalling puts the original back everywhere.  Spans stay in
memory: name, busy intervals, parent span and job id.  A generator span
(ModularKernel.vectors) is busy only while its `next` runs, so it carries
one interval per step.

Self time is a span's busy time minus the part of it covered by its
children.  Per-call facts that cost time to compute (transform bit
lengths, distinct matrices) are taken after the job, outside its timing.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute); "Class.method" names a method.
TARGETS = {
    "cli.main": ("foxcolor.cli", "main"),
    "diagram.parse": ("foxcolor.diagram", "parse_pd"),
    "diagram.build": ("foxcolor.diagram", "build_diagram"),
    "diagram.move": ("foxcolor.diagram", "apply_move"),
    "diagram.variants": ("foxcolor.diagram", "random_variants"),
    "linalg.snf": ("foxcolor.linalg", "smith_normal_form"),
    "linalg.solve": ("foxcolor.linalg", "solve_mod"),
    "linalg.kernel": ("foxcolor.linalg", "ModularKernel.vectors"),
    "coloring.matrix": ("foxcolor.coloring", "coloring_matrix"),
    "coloring.profile": ("foxcolor.coloring", "profile"),
    "coloring.count": ("foxcolor.coloring", "count_colorings"),
    "coloring.nullity": ("foxcolor.coloring", "p_nullity"),
    "coloring.determinant": ("foxcolor.coloring", "link_determinant"),
    "coloring.enumerate": ("foxcolor.coloring", "enumerate_colorings"),
    "orbits.group": ("foxcolor.orbits", "build_group"),
    "orbits.partition": ("foxcolor.orbits", "orbit_partition"),
    "orbits.predict": ("foxcolor.orbits", "predicted_class_count"),
    "orbits.verify": ("foxcolor.orbits", "verify_counts"),
}
GENERATORS = {"linalg.kernel"}
# spans whose arguments and result are kept until the job ends
KEEP = {"linalg.snf", "coloring.enumerate", "orbits.partition"}


class Span:
    __slots__ = ("name", "parent", "job", "intervals", "keep", "info")

    def __init__(self, name, parent, job):
        self.name = name
        self.parent = parent
        self.job = job
        self.intervals = []
        self.keep = None
        self.info = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def busy(self) -> float:
        return sum(b - a for a, b in self.intervals)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job = None
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name) -> Span:
        span = Span(name, self.stack[-1] if self.stack else None, self.job)
        self.spans.append(span)
        return span

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            self.stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.intervals.append((t0, perf_counter()))
                self.stack.pop()
            if name in KEEP:
                span.keep = (args, result)
            return result
        return traced

    def _wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            span = self._open(name)
            steps = 0
            try:
                while True:
                    self.stack.append(span)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        span.intervals.append((t0, perf_counter()))
                        self.stack.pop()
                    steps += 1
                    yield item
            finally:
                span.info = {"vectors": steps}
        return traced

    def install(self) -> None:
        """Wrap every target; foxcolor.cli must already be imported."""
        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "foxcolor" or n.startswith("foxcolor.")) and m is not None]
        for name, (modname, attr) in TARGETS.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            orig = vars(owner)[attr]
            wrapper = (self._wrap_generator if name in GENERATORS else self._wrap)(name, orig)
            if owner not in mods:
                self._installed.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._installed.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._installed):
            setattr(owner, key, orig)
        self._installed.clear()

    def finish_job(self, first: int) -> None:
        """Turn kept arguments of spans[first:] into facts, then drop them."""
        distinct: set = set()
        for span in self.spans[first:]:
            if span.keep is None:
                continue
            args, result = span.keep
            span.keep = None
            if span.name == "linalg.snf":
                m = args[0]
                distinct.add(m.entries)
                factors = result.invariant_factors
                span.info = {
                    "dim": max(m.rows, m.cols),
                    "diag": len(factors),
                    "units": sum(1 for f in factors if f == 1),
                    "bits": max((abs(x).bit_length() for row in result.c.entries for x in row),
                                default=0),
                }
            elif span.name == "coloring.enumerate":
                span.info = {"nontrivial": sum(1 for c in result if not c.is_trivial)}
            elif span.name == "orbits.partition":
                span.info = {"colorings": sum(result.sizes()), "orbits": result.class_count,
                             "group": args[1].size}
        for span in self.spans[first:]:
            if span.name == "cli.main":
                span.info = {"distinct_snf": len(distinct)}


def _merge(intervals):
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1][1] = b
        else:
            out.append([a, b])
    return out


def _overlap(xs, ys) -> float:
    """Length of the intersection of two merged interval lists."""
    i = j = 0
    total = 0.0
    while i < len(xs) and j < len(ys):
        lo = max(xs[i][0], ys[j][0])
        hi = min(xs[i][1], ys[j][1])
        if hi > lo:
            total += hi - lo
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of each span, keyed by id(span)."""
    child_intervals = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            child_intervals[id(s.parent)].extend(s.intervals)
    out = {}
    for s in spans:
        own = _merge(s.intervals)
        busy = sum(b - a for a, b in own)
        kids = child_intervals.get(id(s))
        out[id(s)] = busy - _overlap(own, _merge(kids)) if kids else busy
    return out


def accounting(spans) -> tuple[float, float]:
    """(sum of all self times, busy time of the root spans): equal when
    every span nests inside its parent."""
    own = self_times(spans)
    return sum(own.values()), sum(s.busy() for s in spans if s.parent is None)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of the spans of one pass (see bench/README.md)."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(name):
        return sum(own[id(s)] for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s.layer] += own[id(s)]

    snf = [s.info for s in by_name["linalg.snf"]]
    snf_calls = len(snf)
    kernel_vectors = sum(s.info["vectors"] for s in by_name["linalg.kernel"])
    kernel_s = self_s("linalg.kernel")
    part = [s.info for s in by_name["orbits.partition"]]
    part_colorings = sum(p["colorings"] for p in part)
    part_s = self_s("orbits.partition")
    distinct = sum(s.info["distinct_snf"] for s in by_name["cli.main"])
    diag = sum(i["diag"] for i in snf)
    return {
        "cli.self_s": layer_self["cli"],
        "diagram.self_s": layer_self["diagram"],
        "diagram.parse_s": self_s("diagram.parse"),
        "diagram.build_s": self_s("diagram.build"),
        "diagram.build_calls": calls("diagram.build"),
        "diagram.move_s": self_s("diagram.move"),
        "diagram.move_calls": calls("diagram.move"),
        "linalg.self_s": layer_self["linalg"],
        "linalg.snf_calls": snf_calls,
        "linalg.snf_s": self_s("linalg.snf"),
        "linalg.snf_call_s.p50": (statistics.median(own[id(s)] for s in by_name["linalg.snf"])
                                  if snf_calls else 0.0),
        "linalg.snf_dim_max": max((i["dim"] for i in snf), default=0),
        "linalg.unit_factor_ratio": sum(i["units"] for i in snf) / diag if diag else 0.0,
        "linalg.transform_bits_max": max((i["bits"] for i in snf), default=0),
        "linalg.snf_distinct_ratio": distinct / snf_calls if snf_calls else 0.0,
        "linalg.kernel_vectors": kernel_vectors,
        "linalg.kernel_s": kernel_s,
        "linalg.kernel_s_per_vector": kernel_s / kernel_vectors if kernel_vectors else 0.0,
        "coloring.self_s": layer_self["coloring"],
        "coloring.matrix_calls": calls("coloring.matrix"),
        "coloring.matrix_s": self_s("coloring.matrix"),
        "coloring.profile_calls": calls("coloring.profile"),
        "coloring.enumerate_calls": calls("coloring.enumerate"),
        "coloring.enumerate_s": self_s("coloring.enumerate"),
        "coloring.nontrivial_ratio": (sum(s.info["nontrivial"] for s in by_name["coloring.enumerate"])
                                      / kernel_vectors if kernel_vectors else 0.0),
        "orbits.self_s": layer_self["orbits"],
        "orbits.partition_calls": len(part),
        "orbits.partition_s": part_s,
        "orbits.partition_colorings": part_colorings,
        "orbits.orbit_count": sum(p["orbits"] for p in part),
        "orbits.group_size_max": max((p["group"] for p in part), default=0),
        "orbits.partition_s_per_coloring": part_s / part_colorings if part_colorings else 0.0,
        "orbits.verify_calls": calls("orbits.verify"),
        "orbits.verify_self_s": self_s("orbits.verify"),
    }


def dump(spans) -> list[dict]:
    """JSON-ready spans; a generator span is written as its extent and busy time."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [{"name": s.name, "job": s.job,
             "parent": index.get(id(s.parent)) if s.parent is not None else None,
             "start": s.intervals[0][0] if s.intervals else None,
             "end": s.intervals[-1][1] if s.intervals else None,
             "busy": s.busy(), "steps": len(s.intervals), "info": s.info}
            for s in spans]
