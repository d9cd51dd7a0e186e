"""Span tracer for the benchmark's traced run.

It measures each layer of the package from outside: after `qrgxy.cli` is
imported, every wrapped public function is replaced by a timing wrapper in
every `qrgxy` module that bound it by name (`ground_doublet`, for one, is
bound in `rgflow`, `concurrence`, `cli` and the package itself). The program
itself is not changed.

Spans are kept in memory as tuples and written out when the run ends. Each
span records its thread and its nearest wrapped parent on the same thread,
so self time is computed per thread: the parent of a span that runs in a
pool thread is None, and the waiting of the span that started the pool is
its own self time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

PACKAGE = "qrgxy"

# module -> public functions wrapped in the traced run
WRAPPED = {
    "pauli": ("two_site_term", "embed_pauli", "embed_y_real", "parity_operator"),
    "blocks": ("block_hamiltonian",),
    "numerics": ("eigh_symmetric", "sqrt_psd"),
    "rgflow": ("ground_doublet", "renormalized_operators", "rg_map", "gamma_prime"),
    "concurrence": (
        "block_concurrence",
        "partial_trace_pair",
        "wootters_concurrence",
        "flowed_concurrence",
        "concurrence_curve",
    ),
    "scaling": ("peak_points",),
    "cli": ("main",),
}

FUNCTIONS = tuple(f"{m}.{f}" for m, funcs in WRAPPED.items() for f in funcs)


def _eigh_work(args, result):
    # LAPACK's symmetric eigensolver costs O(n^3) for an n x n matrix
    return len(args[0]) ** 3


def _hamiltonian_bytes(args, result):
    return 8 * len(result) ** 2


# computed work per call, summed into `<name>.<metric>`
WORK = {
    "numerics.eigh_symmetric": ("dim3_sum", "n3_computed", _eigh_work),
    "blocks.block_hamiltonian": ("bytes_out", "bytes_computed", _hamiltonian_bytes),
}

# (metric, child, parents): 1 - (child spans under one of parents) / (parent calls)
HIT_RATIOS = (
    ("rgflow.flow_cache_hit_ratio", "rgflow.ground_doublet", ("rgflow.rg_map", "rgflow.gamma_prime")),
    ("concurrence.cache_hit_ratio", "rgflow.ground_doublet", ("concurrence.block_concurrence",)),
)

# scalar derivative probes: flowed_concurrence called from peak_points
# directly, not through the concurrence_curve grid sweep
PROBE = ("scaling.probe", "concurrence.flowed_concurrence", "scaling.peak_points")


class Tracer:
    """Wraps the functions in WRAPPED and records one span per call.

    A span is (id, name, thread, parent id or None, start, end, work).
    """

    def __init__(self, package: str = PACKAGE):
        self.package = package
        self.spans: list = []
        self.absent: list = []
        self._ids = itertools.count()
        self._local = threading.local()

    def install(self) -> None:
        """Patch every binding of each wrapped function. A function that no
        longer exists is listed in `absent` instead of failing the run."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        for module, funcs in WRAPPED.items():
            home = sys.modules.get(f"{self.package}.{module}")
            for func in funcs:
                name = f"{module}.{func}"
                original = getattr(home, func, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                work = WORK.get(name)
                wrapper = self._wrap(name, original, work[2] if work else None)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def _wrap(self, name, fn, work):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                # a span is kept even when the call raises, so its children
                # still find their parent
                spans.append((sid, name, threading.get_ident(), parent, start, end,
                              work(args, result) if work and result is not None else 0))

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,thread,parent,start,end,work\n")
            for sid, name, thread, parent, start, end, work in self.spans:
                fh.write(f"{sid},{name},{thread},{'' if parent is None else parent},"
                         f"{start:.9f},{end:.9f},{work}\n")


def layer_metrics(spans) -> dict:
    """Per-layer metrics {name: (value, unit)} from a list of spans. A
    function without spans, absent ones included, reports 0."""
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    own = {}
    work: Counter = Counter()
    names = {}
    for sid, name, _thread, _parent, start, end, w in spans:
        names[sid] = name
        calls[name] += 1
        total[name] += end - start
        own[sid] = end - start
        work[name] += w
    under: Counter = Counter()  # (child name, nearest wrapped parent name)
    probe_s = 0.0
    for sid, name, _thread, parent, start, end, _w in spans:
        if parent is None:
            continue
        own[parent] -= end - start
        under[(name, names[parent])] += 1
        if (name, names[parent]) == PROBE[1:]:
            probe_s += end - start
    self_s: defaultdict = defaultdict(float)
    for sid, value in own.items():
        self_s[names[sid]] += value

    out = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.total_s"] = (total[name], "s")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for metric, child, parents in HIT_RATIOS:
        attempts = sum(calls[p] for p in parents)
        misses = sum(under[(child, p)] for p in parents)
        out[metric] = (1.0 - misses / attempts if attempts else 0.0, "ratio")
    out[f"{PROBE[0]}.calls"] = (under[PROBE[1:]], "count")
    out[f"{PROBE[0]}.total_s"] = (probe_s, "s")
    for name, (metric, unit, _fn) in WORK.items():
        out[f"{name}.{metric}"] = (work[name], unit)
    return out
