"""Command-line frontend: construct, gray, span, analyze, grid.

Exit codes: 0 ok, 1 failed check, 2 usage error, 3 resource cap,
4 I/O failure.  The GHCODES_MAX_SIZE env var overrides the size cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .analysis import DEFAULT_QUAD_CAP, AnalysisReport, verify_theorems
from .construction import GeneratorMatrix, TypeSignature, build, parse_text, to_text
from .enumeration import span
from .errors import IntegrityError, ResourceLimitError
from .gray import gray_rows, mixed_gray
from .ring import CodeShape, MixedVector

DEFAULT_GRID_CAP = 2**16


def _parse_signature(args) -> TypeSignature:
    if args.p is None:
        raise ValueError("-t needs -p")
    ts = tuple(int(x) for x in args.t.split(","))
    if args.s is not None and args.s != len(ts):
        raise ValueError(f"-s {args.s} does not match {len(ts)} entries in -t")
    return TypeSignature(args.p, len(ts), ts)


def _matrix_json(a: GeneratorMatrix) -> dict:
    return {
        "p": a.shape.p,
        "s": a.shape.s,
        "alpha": list(a.shape.alphas),
        "t": list(a.signature.ts),
        "rows": [
            [[int(x) for x in a.block(i)[k]] for i in range(1, a.shape.s + 1)]
            for k in range(a.rows.shape[0])
        ],
    }


def cmd_construct(args) -> int:
    a = build(_parse_signature(args))
    if args.format == "json":
        print(json.dumps(_matrix_json(a), indent=2))
    else:
        sys.stdout.write(to_text(a))
    return 0


def _load_matrix(path: str) -> GeneratorMatrix:
    text = sys.stdin.read() if path == "-" else open(path).read()
    return parse_text(text)


def _digit_string(row) -> str:
    return "".join(str(int(x)) for x in row)


def cmd_gray(args) -> int:
    if args.matrix or args.t:
        a = _load_matrix(args.matrix) if args.matrix else build(_parse_signature(args))
    elif args.vector:
        if None in (args.alpha, args.p, args.s):
            raise ValueError("--vector needs --alpha, -p and -s")
        alphas = tuple(int(x) for x in args.alpha.split(","))
        shape = CodeShape(args.p, args.s, alphas)
        blocks = [b.split() for b in args.vector.split("|")]
        v = MixedVector.make(shape, [[int(x) for x in b] for b in blocks])
        print(_digit_string(mixed_gray(v)))
        return 0
    else:
        raise ValueError("give --matrix, -t, or --vector")
    for img in gray_rows(a.rows, a.shape):
        print(_digit_string(img))
    return 0


def cmd_span(args) -> int:
    a = build(_parse_signature(args))
    code = span(a, cap=args.max_size)
    if args.gray:
        for img in gray_rows(code.words, code.shape):
            print(_digit_string(img))
        return 0
    offsets = np.cumsum((0,) + code.shape.alphas)
    for row in code.words:
        parts = [
            " ".join(str(int(x)) for x in row[offsets[i] : offsets[i + 1]])
            for i in range(code.shape.s)
        ]
        print(" | ".join(parts))
    return 0


def cmd_analyze(args) -> int:
    report = verify_theorems(_parse_signature(args), args.quad_cap, args.seed)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(report.to_table())
    return 0 if report.ok else 1


@dataclass
class GridSpec:
    """Sweep parameters: which primes and depths, and the code-size cap."""

    primes: tuple[int, ...] = (2, 3)
    s_values: tuple[int, ...] = (2, 3)
    max_size: int = DEFAULT_GRID_CAP
    quad_cap: int = DEFAULT_QUAD_CAP
    seed: int = 7
    skipped_families: list = field(default_factory=list)

    def signatures(self):
        for p in self.primes:
            for s in self.s_values:
                base = TypeSignature(p, s, (1,) + (0,) * (s - 2) + (1,))
                if base.code_size() > self.max_size:
                    self.skipped_families.append(f"p={p} s={s}")
                    continue
                yield from self._enumerate(p, s)

    def _enumerate(self, p: int, s: int):
        emax = 0
        while p ** (emax + 1) <= self.max_size:
            emax += 1

        def rec(i, ts, used):
            if i == s:
                yield TypeSignature(p, s, tuple(ts))
                return
            weight = s - i  # order exponent of t_{i+1} generators
            lo = 1 if i in (0, s - 1) else 0
            reserve = 1 if i < s - 1 else 0  # t_s >= 1 still owed
            t = lo
            while used + t * weight + reserve <= emax:
                yield from rec(i + 1, ts + [t], used + t * weight)
                t += 1

        yield from rec(0, [], 0)


def _format_signature(sig: TypeSignature) -> str:
    return f"p={sig.p} s={sig.s} t={','.join(str(t) for t in sig.ts)}"


def _csv_rows(reports: list[AnalysisReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["signature", "n", "size", "d", "is_gh", "is_linear", "ker", "rank"])
    writer.writerows(
        [_format_signature(r.signature), r.n, r.size, r.min_distance, r.is_gh,
         r.is_linear, r.kernel_dim, r.rank]
        for r in reports
    )
    return buf.getvalue()


def _atomic_write(path: str, data: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


def run_grid(spec: GridSpec, out=sys.stdout) -> tuple[list[AnalysisReport], int]:
    reports = []
    failed = 0
    for sig in spec.signatures():
        report = verify_theorems(sig, spec.quad_cap, spec.seed, cap=spec.max_size)
        reports.append(report)
        status = "PASS" if report.ok else "FAIL"
        if not report.ok:
            failed += 1
        print(
            f"{status} {_format_signature(sig):<28} size={report.size:<8} "
            f"n={report.n:<8} d={report.min_distance:<7} "
            f"linear={str(report.is_linear):<5} ker={report.kernel_dim:<3} "
            f"rank={report.rank}",
            file=out,
        )
    return reports, failed


def cmd_grid(args) -> int:
    primes = tuple(int(x) for x in args.primes.split(",") if x)
    s_values = tuple(int(x) for x in args.s_values.split(",") if x)
    spec = GridSpec(primes, s_values, args.max_size, args.quad_cap, args.seed)
    reports, failed = run_grid(spec)
    summary = {
        "total": len(reports),
        "passed": len(reports) - failed,
        "failed": failed,
        "skipped_families": spec.skipped_families,
    }
    print(
        f"summary: {summary['passed']}/{summary['total']} signatures pass"
        + (
            f"; skipped: {', '.join(spec.skipped_families)}"
            if spec.skipped_families
            else ""
        )
    )
    try:
        if args.out:
            doc = {
                "grid": {
                    "primes": list(primes),
                    "s_values": list(s_values),
                    "max_size": args.max_size,
                    "quad_cap": args.quad_cap,
                    "seed": args.seed,
                },
                "results": [r.to_json_dict(include_kernel=False) for r in reports],
                "summary": summary,
            }
            _atomic_write(args.out, json.dumps(doc, indent=2) + "\n")
        if args.csv:
            _atomic_write(args.csv, _csv_rows(reports))
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    return 0 if failed == 0 else 1


def _add_signature_args(sub, require_t=True):
    sub.add_argument("-p", type=int, required=True, help="prime base")
    sub.add_argument("-s", type=int, default=None, help="chain depth (checked against -t)")
    sub.add_argument("-t", required=require_t, default=None, help="signature t_1,...,t_s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghcodes",
        description="Mixed-alphabet generalized Hadamard codes: construction and verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    c = subs.add_parser("construct", help="print a generator matrix")
    _add_signature_args(c)
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.set_defaults(func=cmd_construct)

    g = subs.add_parser("gray", help="Gray-map matrix rows or a single vector")
    g.add_argument("-p", type=int, default=None)
    g.add_argument("-s", type=int, default=None)
    g.add_argument("-t", default=None)
    g.add_argument("--matrix", default=None, help="matrix text file, or - for stdin")
    g.add_argument("--vector", default=None, help='one vector, e.g. "1 1 | 2 | 4"')
    g.add_argument("--alpha", default=None, help="block widths for --vector")
    g.set_defaults(func=cmd_gray)

    sp = subs.add_parser("span", help="enumerate the additive code")
    _add_signature_args(sp)
    sp.add_argument("--gray", action="store_true", help="print Gray images instead")
    sp.add_argument("--max-size", type=int, default=DEFAULT_GRID_CAP)
    sp.set_defaults(func=cmd_span)

    an = subs.add_parser("analyze", help="theorem-replay report for one signature")
    _add_signature_args(an)
    an.add_argument("--json", action="store_true")
    an.add_argument("--quad-cap", type=int, default=DEFAULT_QUAD_CAP)
    an.add_argument("--seed", type=int, default=7)
    an.set_defaults(func=cmd_analyze)

    gr = subs.add_parser("grid", help="verify every admissible signature")
    gr.add_argument("--primes", default="2,3")
    gr.add_argument("--s-values", default="2,3")
    gr.add_argument("--max-size", type=int, default=DEFAULT_GRID_CAP)
    gr.add_argument("--quad-cap", type=int, default=DEFAULT_QUAD_CAP)
    gr.add_argument("--seed", type=int, default=7)
    gr.add_argument("--out", default=None, help="write per-signature JSON report")
    gr.add_argument("--csv", default=None, help="write the CSV summary")
    gr.set_defaults(func=cmd_grid)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_size", 1) < 1:
        parser.error("--max-size must be positive")
    if getattr(args, "quad_cap", 0) < 0:
        parser.error("--quad-cap must be non-negative")
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except IntegrityError as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
