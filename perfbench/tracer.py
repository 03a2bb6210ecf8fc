"""In-memory span tracer for the shortpulse layers.

The tracer wraps, from outside the package, every public function and every
public method of the layer modules, plus the transform functions of
``scipy.fft`` and ``numpy.fft``.  A wrapped call records one span
``(name, start, end, parent)``; transform calls are only counted, and the
count is attributed to the innermost open span.  Nothing under ``src/`` is
edited: wrapping replaces module and class attributes and :meth:`uninstall`
puts the originals back.

Span names are ``<module>.<function>`` for functions and
``<module>.<method>`` for methods (``_kernels.spectrum`` is
``NonlinearKernel.spectrum``); a method whose short name is already taken
becomes ``<module>.<Class>.<method>``.  A function that a later version of
the package no longer has is simply not wrapped, so its metrics go absent.
"""

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("_kernels", "evolve", "norms", "bands", "packets",
          "counterexample", "storage", "spectral", "config", "cli")
PACKAGE = "shortpulse"
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
# storage writers take the target path first; the tracer counts the bytes
# they leave on disk and whether they replaced an existing file
WRITERS = ("storage.write_field", "storage.write_csv", "storage.write_json")


def _transform_points(name, args, kwargs):
    """Length of one 1-D transform: ``n`` when given, else the input's last
    axis (for irfft and hfft, the real output length 2 * (m - 1))."""
    n = args[1] if len(args) > 1 else kwargs.get("n")
    if n is not None:
        return int(n)
    x = args[0] if args else kwargs.get("x", kwargs.get("a"))
    shape = getattr(x, "shape", None)
    if not shape:
        return 0
    return 2 * (shape[-1] - 1) if name in ("irfft", "hfft") else shape[-1]


def package_modules():
    """The imported modules of the package, by name."""
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def bindings(modules, original):
    """Every (module, attribute) bound to ``original``: `from .bands import
    hyp_ell_decompose` binds a function in the importing module too."""
    return [(module, attr) for module in modules
            for attr, value in list(vars(module).items()) if value is original]


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = Counter()  # (owner, counter) -> value; owner: span name, "storage" or ""
        self.wrapped = set()     # span names that were installed
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every layer module that imports."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
        loaded = package_modules()
        for layer, module in modules.items():
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrapper = self._wrap(name, obj)
                    for owner, binding in bindings(loaded, obj):
                        self._patch(owner, binding, wrapper)
                    self.wrapped.add(name)
            for attr, cls in sorted(vars(module).items()):
                if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
                    continue
                for meth, fn in sorted(vars(cls).items()):
                    if meth.startswith("_") or not inspect.isfunction(fn):
                        continue
                    name = f"{layer}.{meth}"
                    if name in self.wrapped:
                        name = f"{layer}.{attr}.{meth}"
                    self._patch(cls, meth, self._wrap(name, fn))
                    self.wrapped.add(name)
        for modname in ("scipy.fft", "numpy.fft"):
            module = importlib.import_module(modname)
            for fname in FFT_FUNCTIONS:
                fn = getattr(module, fname, None)
                if fn is not None:
                    self._patch(module, fname, self._count_fft(fname, fn))

    def uninstall(self):
        """Put every original attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        writer = name in WRITERS

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append((index, name))
            target = args[0] if writer and args else None
            if not isinstance(target, (str, os.PathLike)):
                target = None
            existed = target is not None and os.path.exists(target)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
                if target is not None and os.path.exists(target):
                    counts[("storage", "files_replaced")] += existed
                    counts[("storage", "bytes_written")] += os.path.getsize(target)

        return functools.wraps(fn)(traced)

    def _count_fft(self, fname, fn):
        stack, counts = self._stack, self.counts

        def counted(*args, **kwargs):
            owner = stack[-1][1] if stack else ""
            counts[(owner, "fft_calls")] += 1
            counts[(owner, "fft_points")] += _transform_points(fname, args, kwargs)
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    # -- export -----------------------------------------------------------

    def export(self):
        """Plain-data view of what was recorded, for JSON; call it once every
        span has closed (span parents are indices into ``spans``)."""
        return {
            "spans": [list(s) for s in self.spans],
            "counts": [[k[0], k[1], v] for k, v in sorted(self.counts.items())],
            "wrapped": sorted(self.wrapped),
        }


def covered_length(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (children clipped to the parent's interval)."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        kids = [(max(s, start), min(e, end)) for s, e in children.get(index, ())]
        kids = [(s, e) for s, e in kids if e > s]
        out.append((end - start) - covered_length(kids))
    return out


def summarize(spans):
    """Per span name: calls, total_s, self_s and the list of durations."""
    table = {}
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "durations": []})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
        row["durations"].append(end - start)
    return table
