"""ultraforest benchmark: one closed-loop client drives one workload.

    python3 bench/run.py --workload cli-files --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
A round runs every op of the workload once.  A run repeats the same round
``round(seconds / nominal round time)`` times, at least three, so the
parent and a change do the same work, and takes each op's latency as the
fastest of its repeats: on a shared 2-core host a core's speed drops by
a third for seconds at a time, and such stretches only ever add time, so
the fastest repeat is the op's cost on an unloaded core.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs one round untraced, then the same
round traced, and reports the per-layer metrics for one round.  The last
line of stdout is the JSON result.  ``--small`` runs the workload at its
smallest size (used by smoke.py).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

# seconds one round takes on the seed (2 cores, Python 3.11.7)
NOMINAL_ROUND_S = {"cli-files": 5.0, "cli-rejects": 2.0, "lib-large": 5.0, "sweep-small": 5.0}
MIN_ROUNDS = 3

SETUP_PROBES = 24  # spread over the rounds, so a slow stretch hits few
SETUP_PROBE = """\
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ultraforest.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--version"])
    except SystemExit:
        pass
print(time.perf_counter() - t0)
"""

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MiB",
}

CALLS = ("core.validate_space", "tree.build_representing_tree", "classify.membership", "classify.audit_equivalences", "classify.shape_spectrum_oracle")
SELF_TIMES = (
    "cli.main",
    "formats.parse_space",
    "formats.tree_from_json",
    "formats.unrooted_from_json",
    "formats.space_to_csv",
    "formats.tree_to_json_obj",
    "core.validate_space",
    "tree.build_representing_tree",
    "tree.RootedTree",
    "tree.tree_to_space",
    "canonical.canonical_code",
    "canonical.node_codes",
    "canonical.count_self_isometries",
    "canonical.are_isometric",
    "canonical.are_weakly_similar",
    "classify.classify",
    "classify.is_gomory_hu_extremal",
    "classify.has_injective_internal_labels",
    "classify.is_strictly_binary",
    "classify.strict_arity",
    "classify.is_rigid",
    "classify.has_inner_chain",
    "classify.has_inner_chain_equal_tail",
    "classify.is_shape_spectrum_determined",
    "classify.is_homogeneous",
    "classify.leaves_same_level",
    "classify.labels_same_level",
    "classify.perfect_nary_arity",
    "classify.ball_preserving_structure",
    "unrooted.has_leaf_child_everywhere",
    "classify.membership",
    "classify.audit_equivalences",
    "classify.brute_force_ballean",
    "classify.shape_spectrum_oracle",
    "graphs.level_graph",
    "graphs.strip_isolated",
    "graphs.connected_components",
    "graphs.complete_multipartite_parts",
    "unrooted.unrooted_from_representing",
    "unrooted.space_from_unrooted",
    "gen.enumerate_spaces",
    "gen.enumerate_rank_trees",
    "gen.enumerate_shapes",
    "hereditary.hereditary_verify",
    "hereditary.hereditary_counterexample_search",
)
COUNTS = {
    "cli.stdout_bytes": "bytes",
    "formats.tokens": "count",
    "tree.nodes": "count",
    "tree.height_max": "count",
    "canonical.code_chars": "count",
    "classify.hamilton_oracle_strictly_binary.calls": "count",
    "classify.oracle_calls": "count",
    "classify.audited_spaces": "count",
    "classify.oracle_coverage": "ratio",
    "gen.spaces": "count",
    "hereditary.membership_evals": "count",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in SELF_TIMES}
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update(COUNTS)
    return units


def setup_probe() -> float:
    """Import plus parser build in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip())


def run_round(ops, verdicts: dict, tracer=None) -> list[dict]:
    """Run every op once, one after another; return one record per op."""
    records = []
    for i, op in enumerate(ops):
        op.prepare()
        gc.collect()  # each op starts with no garbage from the one before
        if tracer is not None:
            tracer.begin_op(i)
        t0 = perf_counter()
        outcome = op.run()
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        digest = hashlib.sha256(outcome.stdout.encode()).hexdigest()
        status, reason = "ok", None
        if outcome.error is not None:
            status, reason = "escaped", outcome.error
        else:
            # a check is a pure function of the output, so later rounds
            # with identical output reuse its verdict
            key = (i, outcome.rc, digest, outcome.stderr)
            if key not in verdicts:
                try:
                    verdicts[key] = op.check(outcome)
                except Exception as exc:  # unreadable output fails its check
                    verdicts[key] = f"check raised {type(exc).__name__}: {exc}"
            reason = verdicts[key]
            if reason:
                status = "wrong"
        records.append(
            {
                "op": op.label,
                "seconds": elapsed,
                "status": status,
                "reason": reason,
                "note": op.note(outcome) if status == "ok" else None,
                "stdout_bytes": len(outcome.stdout.encode()),
                "sha256": digest,
            }
        )
    return records


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples above it: its
    value, the percentile, and the sample count."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:  # too few ops for the rule; the slowest one stands in
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(rounds: list[list[dict]], setup: list[float]) -> dict:
    records = [r for rnd in rounds for r in rnd]
    lat = [min(rnd[i]["seconds"] for rnd in rounds) for i in range(len(rounds[0]))]
    failed = sum(r["status"] != "ok" for r in records)
    value, pct, n = tail(lat)
    print(f"detail: latencies are each op's fastest of {len(rounds)} rounds")
    print(f"detail: op_tail_ms is p{pct:.2f} of {n} ops ({10 if n > 10 else 0} above it)")
    print(f"detail: setup_s probes {[round(t, 4) for t in setup]}")
    print(f"detail: fail_ratio {failed}/{len(records)} = {failed / len(records):.4f}")
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * value,
        "ok_ratio": (len(records) - failed) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, records, overhead: float) -> dict:
    self_s, calls = tracer.totals()
    values = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMES}
    values.update({f"{name}.calls": float(calls.get(name, 0)) for name in CALLS})
    counts = dict(tracer.counts)
    counts["cli.stdout_bytes"] = sum(r["stdout_bytes"] for r in records)
    counts["classify.hamilton_oracle_strictly_binary.calls"] = calls.get("classify.hamilton_oracle_strictly_binary", 0)
    audited = calls.get("classify.audit_equivalences", 0)
    counts["classify.audited_spaces"] = audited
    counts["classify.oracle_coverage"] = counts.get("classify.oracle_calls", 0) / audited if audited else 0.0
    counts["trace.overhead_ratio"] = overhead
    for name in COUNTS:
        values[name] = float(counts.get(name, 0))
    top = sorted(((v, k) for k, v in self_s.items()), reverse=True)[:8]
    print("detail: largest self times " + ", ".join(f"{k}={v:.4f}s" for v, k in top))
    print(f"detail: spans recorded {len(tracer.start)}; uncovered harness time {self_s.get('bench.op', 0.0):.4f}s; hooks {self_s.get('trace.hooks', 0.0):.4f}s")
    return values


def main(argv=None) -> int:
    from workloads import WORKLOADS  # noqa: E402  (after sys.path is set)

    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="smallest sizes only")
    args = ap.parse_args(argv)

    if not (SRC / "ultraforest" / "__init__.py").is_file():
        print(f"error: no ultraforest package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ultraforest
    import ultraforest.cli  # noqa: F401  (imports every layer)

    if Path(ultraforest.__file__).resolve().parent != SRC / "ultraforest":
        print(f"error: imported ultraforest from {ultraforest.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from tracer import install
    from workloads import Library

    lib = Library(ultraforest)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        ops = WORKLOADS[args.workload](lib, work, args.seed, args.small)
        # the harness's own inputs and expected answers are not the
        # program's garbage; keep the collector from rescanning them
        gc.collect()
        gc.freeze()
        verdicts: dict = {}
        if args.trace == 0:
            n_rounds = max(MIN_ROUNDS, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
            print(f"detail: workload {args.workload}, seed {args.seed}, {n_rounds} rounds of {len(ops)} ops")
            setup_probe()  # compiles the byte code; users of an install have it
            rounds, setup = [], []
            per_round = 1 if args.small else -(-SETUP_PROBES // n_rounds)
            for _ in range(n_rounds):
                rounds.append(run_round(ops, verdicts))
                setup += [setup_probe() for _ in range(per_round)]
            metrics = end_to_end(rounds, setup)
            records = [r for rnd in rounds for r in rnd]
            units = END_TO_END
        else:
            print(f"detail: workload {args.workload}, seed {args.seed}, one untraced and one traced round of {len(ops)} ops")
            t0 = perf_counter()
            plain = run_round(ops, verdicts)
            untraced = perf_counter() - t0
            tracer = install(ultraforest)
            t0 = perf_counter()
            records = run_round(ops, verdicts, tracer)
            traced = perf_counter() - t0
            gap = tracer.op_balance()
            if gap > 1e-6:
                print(f"error: traced self times miss their op's wall time by {gap:.3g}s", file=sys.stderr)
                return 1
            for name in tracer.missing:
                print(f"warning: not traced: {name}")
            metrics = per_layer(tracer, records, traced / untraced)
            units = per_layer_units()
            tracer.write(out_dir / f"{tag}-spans.tsv.gz")
            records = plain + records
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # each distinct failure or note once, with how many rounds showed it
    lines = Counter()
    for r in records:
        if r["status"] != "ok":
            lines[f"FAILED {r['status']}: {r['op']}: {r['reason']}"] += 1
        if r["note"]:
            lines[f"note {r['op']}: {r['note']}"] += 1
    for line, times in lines.items():
        print(f"detail: {line} (x{times})")
    digest = hashlib.sha256("".join(r["sha256"] for r in records).encode()).hexdigest()
    print(f"detail: stdout digest {digest} (per op in .bench_out/{tag}-ops.json)")
    (out_dir / f"{tag}-ops.json").write_text(json.dumps(records, indent=1), encoding="utf-8")
    for name, value in metrics.items():
        print(f"metric: {args.workload} {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not any(r["status"] == "wrong" for r in records),
        "attempted": len(records),
        "failed": sum(r["status"] != "ok" for r in records),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
