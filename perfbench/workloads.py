"""The benchmark's workloads: fixed signature lists, built here rather than
taken from ``ghcodes.cli.GridSpec`` so that a change to the program cannot
change what the benchmark runs.

Every list is small enough that one pass takes about 8-11 s on a 2-core
x86-64 machine, so a 36 s run repeats it three or four times and reports
the median pass.  See README.md for the signatures each list leaves out
and why.
"""

from __future__ import annotations

from dataclasses import dataclass

# Signatures whose verification fails every time because of a known fault
# in the program, with the fault.  An operation on one of them is counted
# as failed, not as a wrong answer.
KNOWN_FAULTS = {
    (3, 5, (1, 0, 0, 0, 1)): (
        "partial_span keeps uint8 words for 128 <= p^s <= 255 and words + mult "
        "wraps at 256 before the reduction, so the span and its Gray image are wrong"
    ),
}


@dataclass(frozen=True)
class Workload:
    name: str
    signatures: tuple[tuple[int, int, tuple[int, ...]], ...]
    largest: tuple[int, int, tuple[int, ...]]


def code_size(p: int, s: int, ts: tuple[int, ...]) -> int:
    """|C| = p^{sum_i (s-i+1) t_i}, read off the type."""
    return p ** sum((s - i) * t for i, t in enumerate(ts))


def smallest_completion(prefix: list[int], s: int) -> tuple[int, ...]:
    if len(prefix) == s:
        return tuple(prefix)
    return tuple(prefix + [0] * (s - len(prefix) - 1) + [1])


def grid_signatures(max_size: int, min_size: int = 0):
    """The default grid (p in {2,3}, s in {2,3}, t_1 >= 1, t_s >= 1) restricted
    to min_size < |C| <= max_size, in the grid's own order."""
    out = []
    for p in (2, 3):
        for s in (2, 3):

            def rec(prefix):
                i = len(prefix)
                if i == s:
                    if min_size < code_size(p, s, tuple(prefix)) <= max_size:
                        out.append((p, s, tuple(prefix)))
                    return
                t = 1 if i in (0, s - 1) else 0
                # the smallest completion (interior zeros, t_s = 1) must fit
                while code_size(p, s, smallest_completion(prefix + [t], s)) <= max_size:
                    rec(prefix + [t])
                    t += 1

            rec([])
    return tuple(out)


# Each workload also holds one signature of the other verification path,
# so that every layer is reached, and every per-layer metric measured, on
# every workload.  Each costs under 1% of a pass.

# Exhaustive path (|C| <= 2^12 inside verify_theorems): the grid up to 2^11,
# and one sampled-path probe.
GRID_EXHAUSTIVE = grid_signatures(2**11) + ((2, 3, (2, 3, 1)),)

# Sampled and certificate path (|C| > 2^12): the grid from 2^12 to 2^14, and
# one exhaustive-path probe.
GRID_SAMPLED = grid_signatures(2**14, min_size=2**12) + ((2, 2, (2, 1)),)

# Wide alphabets, p >= 5 or p^s > 128, on the exhaustive path, and one
# sampled-path signature.
WIDE_ALPHABET = (
    (5, 2, (1, 1)),
    (5, 2, (1, 2)),
    (7, 2, (1, 1)),
    (11, 2, (1, 1)),
    (5, 3, (1, 0, 1)),
    (3, 5, (1, 0, 0, 0, 1)),
    (5, 2, (1, 4)),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid_exhaustive", GRID_EXHAUSTIVE, (2, 2, (1, 9))),
        Workload("grid_sampled", GRID_SAMPLED, (2, 2, (1, 12))),
        Workload("wide_alphabet", WIDE_ALPHABET, (11, 2, (1, 1))),
    )
}

assert len(GRID_EXHAUSTIVE) == 67 and len(GRID_SAMPLED) == 46
assert all(w.largest in w.signatures for w in WORKLOADS.values())
