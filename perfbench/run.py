"""Benchmark of the theorem replay: verify a workload's signatures through
``ghcodes.analysis.verify_theorems`` and check every report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid_exhaustive --seed 1 --seconds 36 --trace 0

One process, one thread.  The run repeats whole passes over the workload's
signature list while another pass still fits in ``--seconds``, at least
once.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A copy of the run, pass by pass, goes to ``perfbench/results/``.
"""

import time

_START = time.perf_counter()  # fallback start of set-up, when /proc is absent

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from contextlib import nullcontext  # noqa: E402

from reference import REFERENCE_MAX_SIZE, check_report, check_reference, reference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import KNOWN_FAULTS, WORKLOADS, code_size  # noqa: E402


def process_age() -> float:
    """Seconds since this process started, interpreter start-up included."""
    try:
        with open("/proc/self/stat") as fh:
            # starttime is field 22; the fields after the ")" that closes
            # the command name start at field 3
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, AttributeError):
        return time.perf_counter() - _START


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_program():
    """Import ghcodes from src/ of the checkout in the current directory."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ghcodes", "__init__.py")):
        sys.exit("perfbench: no src/ghcodes here; run from the root of a checkout")
    sys.path.insert(0, src)
    import ghcodes
    from ghcodes import analysis, construction, gray

    if not os.path.abspath(ghcodes.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported ghcodes from {ghcodes.__file__}, not {src}")
    return analysis, construction, gray


def run_pass(workload, analysis, TypeSignature, seed, refs, tracer):
    """Verify every signature once; returns per-signature times and failures."""
    times, failures = [], []
    if tracer is not None:
        tracer.reset()
    for sig in workload.signatures:
        if tracer is not None:
            tracer.begin_operation()
        t0 = time.perf_counter()
        try:
            report = analysis.verify_theorems(TypeSignature(*sig), seed=seed)
        except Exception as exc:  # a verification that raises is a failed operation
            times.append(time.perf_counter() - t0)
            failures.append((sig, [f"raised {exc!r}"]))
            continue
        times.append(time.perf_counter() - t0)
        ref, ref_problems = refs.get(sig, (None, []))
        problems = ref_problems + check_report(sig, report, ref)
        if problems:
            failures.append((sig, problems))
    layers = tracer.metrics() if tracer is not None else None
    return times, failures, layers


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    analysis, construction, gray = import_program()
    for p, s in sorted({(p, s) for p, s, _ in workload.signatures}):
        for r in range(1, s + 1):
            gray.y_matrix(p, r)
            gray.phi_table(p, r)
    setup_s = process_age()

    # Independent reference for the small codes, computed once and untimed.
    refs = {}
    for sig in workload.signatures:
        if code_size(*sig) <= REFERENCE_MAX_SIZE:
            a = construction.build(construction.TypeSignature(*sig))
            ref = reference(sig[0], a.rows, tuple(a.shape.alphas))
            refs[sig] = (ref, check_reference(sig, ref))

    tracer = Tracer() if args.trace else None
    passes = []
    with tracer.installed() if tracer else nullcontext():
        start = time.perf_counter()
        while True:
            passes.append(
                run_pass(workload, analysis, construction.TypeSignature, args.seed, refs, tracer)
            )
            if len(passes) == 1:
                # Later passes repeat the same work; their extra resident
                # memory is allocator fragmentation, which varies with the
                # number of passes a run fits.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            pass_s = statistics.median(sum(t) for t, _, _ in passes)
            if time.perf_counter() - start + pass_s > args.seconds:
                break
    if tracer is not None and tracer.missing:
        print("perfbench: not traced (absent): " + ", ".join(tracer.missing), file=sys.stderr)

    attempted = len(passes) * len(workload.signatures)
    failures = [f for _, fs, _ in passes for f in fs]
    unexpected = [(sig, problems) for sig, problems in failures if sig not in KNOWN_FAULTS]
    for sig, problems in unexpected[:10]:
        print(f"perfbench: FAIL {sig}: {'; '.join(problems)}", file=sys.stderr)

    largest = workload.signatures.index(workload.largest)
    wall_s = statistics.median(sum(t) for t, _, _ in passes)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "largest_sig_s": (statistics.median(t[largest] for t, _, _ in passes), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = {}
        for name in passes[0][2]:
            unit = _unit(name)
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = (median(layers[name] for _, _, layers in passes), unit)
        metrics["trace.wall_s"] = (wall_s, "s")

    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    _save(args, workload, passes, result)
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def _save(args, workload, passes, result):
    """Keep the run pass by pass next to the benchmark, for later reading."""
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
    os.makedirs(out_dir, exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "signatures": workload.signatures,
        "passes": [
            {
                "times_s": times,
                "failures": failures,
                "layers": layers,
            }
            for times, failures, layers in passes
        ],
        "result": result,
    }
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path + ".tmp", "w") as fh:
        json.dump(doc, fh, indent=1)
    os.replace(path + ".tmp", path)


if __name__ == "__main__":
    sys.exit(main())
