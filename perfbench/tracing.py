"""Per-layer tracing from outside the program.

Wraps public functions of the ghcodes modules and records, for each, the
self time (span minus the spans of wrapped callees) and a work count.
A module that imported a function binds its own name for it, so every
binding in every ghcodes module is replaced, not only the defining one.
"""

from __future__ import annotations

import hashlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _count_rows_returned(tracer, args, kwargs, result):
    tracer.counts["enumeration.words_enumerated"] += result.shape[0]


def _count_symbols(tracer, args, kwargs, result):
    tracer.counts["gray.symbols_mapped"] += result.size


def _count_order_of(tracer, args, kwargs, result):
    tracer.counts["ring.order_of_calls"] += 1


def _count_rows_reduced(tracer, args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    tracer.counts["analysis.rows_reduced"] += rows.shape[0]


def _count_pairs(tracer, args, kwargs, result):
    # A scan of words already scanned in this operation is wasted work.
    words = args[0] if args else kwargs["words"]
    key = (words.shape, str(words.dtype), hashlib.blake2b(words.tobytes()).digest())
    tracer.counts["analysis.pairs_scanned"] += result.pairs
    if key not in tracer.scanned:
        tracer.scanned.add(key)
        tracer.counts["analysis.pairs_needed"] += result.pairs


# (metric, module, attribute, counter): metric names the self time of
# ghcodes.<module>.<attribute>; counter, if any, adds the call's work count.
TARGETS = (
    ("construction.build_s", "construction", "build", None),
    ("ring.order_of_s", "ring", "order_of", _count_order_of),
    ("enumeration.partial_span_s", "enumeration", "partial_span", _count_rows_returned),
    ("enumeration.additive_span_order_s", "enumeration", "additive_span_order", None),
    ("enumeration.span_s", "enumeration", "span", None),
    ("enumeration.gray_image_s", "enumeration", "gray_image", None),
    ("gray.gray_rows_s", "gray", "gray_rows", _count_symbols),
    ("analysis.pair_scan_s", "analysis", "pair_scan", _count_pairs),
    ("analysis.is_gh_code_s", "analysis", "is_gh_code", None),
    ("analysis.kernel_s", "analysis", "kernel", None),
    ("analysis.kernel_basis_s", "analysis", "kernel_basis", None),
    ("analysis.gfbasis_s", "analysis", "GFBasis.add_rows", _count_rows_reduced),
    ("analysis.linearity_certificate_s", "analysis", "linearity_certificate", None),
    ("analysis.sampled_gh_check_s", "analysis", "sampled_gh_check", None),
    ("analysis.gf_span_words_s", "analysis", "gf_span_words", None),
    ("analysis.verify_theorems_s", "analysis", "verify_theorems", None),
)

COUNTS = (
    "ring.order_of_calls",
    "enumeration.words_enumerated",
    "gray.symbols_mapped",
    "analysis.pairs_scanned",
    "analysis.rows_reduced",
)


class Tracer:
    """Self times and counts of the wrapped functions since the last reset."""

    def __init__(self):
        self.missing: list[str] = []
        self._stack: list[list[float]] = []  # child time of each open span
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.scanned: set = set()

    def begin_operation(self) -> None:
        self.scanned.clear()

    def metrics(self) -> dict[str, float]:
        out = {metric: self.self_s[metric] for metric, *_ in TARGETS}
        out.update({name: self.counts[name] for name in COUNTS})
        scanned = self.counts["analysis.pairs_scanned"]
        out["analysis.pair_scan_useful_ratio"] = (
            self.counts["analysis.pairs_needed"] / scanned if scanned else 0.0
        )
        return out

    def _wrap(self, metric, fn, counter):
        stack = self._stack

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.self_s[metric] += dt - children[0]
                if stack:
                    stack[-1][0] += dt
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Replace every binding of each target while the block runs."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "ghcodes" or name.startswith("ghcodes."))
        ]
        undo = []
        try:
            for metric, modname, attr, counter in TARGETS:
                module = sys.modules.get(f"ghcodes.{modname}")
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = (
                    owner.__dict__.get(method) if owner is not None else None
                )
                if original is None:
                    self.missing.append(f"ghcodes.{modname}.{attr}")
                    continue
                wrapper = self._wrap(metric, original, counter)
                if owner_name:  # a method: patch the class once
                    undo.append((owner, method, original))
                    setattr(owner, method, wrapper)
                    continue
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            undo.append((m, name, original))
                            setattr(m, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)
