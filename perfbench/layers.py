"""The traced run: every workload's operation under the tracer, plus probes
for the layers no workload calls at a traceable grain, in TRACE_PASSES passes.

Per-layer metrics come from the spans of one named operation each, so they
mean the same whichever workload the run was started for; that workload
only chooses the verification window (through its seed) and which
operation is also run untraced to give trace.overhead_share.  The end-to-end
metric and workload each one should move are in targets.json.
"""

from __future__ import annotations

import statistics
import time

from tracer import Tracer
from workloads import WORKLOADS
from yardstick import Yardstick

KAPPA_PROBE_N = 10_000
TRIANGLE_PROBE_N = 1_000
STOPPING_PROBE_INTS = 1 << 17
TRACE_PASSES = 5


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def trace_run(cs, target: str, size: str, seed: int, reference: dict):
    """TRACE_PASSES traced passes; each metric is the median over the passes.

    Returns (metrics {name: value}, attempted, failed, failures, spans).
    """
    wls = {name: cls(cs, size, seed, reference) for name, cls in WORKLOADS.items()}
    checks = {"attempted": 0, "failed": 0, "failures": []}
    passes, spans = [], []
    for i in range(TRACE_PASSES):
        metrics, tracer = _trace_pass(cs, wls, target, checks)
        passes.append(metrics)
        spans.extend(dict(span, trace_pass=i) for span in tracer.spans)
    median = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    return median, checks["attempted"], checks["failed"], checks["failures"], spans


def _trace_pass(cs, wls: dict, target: str, checks: dict):
    def checked(wl, out):
        bad = wl.check(out)
        checks["attempted"] += 1
        checks["failed"] += bool(bad)
        checks["failures"].extend(f"{wl.name}: {msg}" for msg in bad)

    # The run's own workload goes first untraced, then first traced, with
    # calibration loops around both, so the overhead is compared at the same
    # reference speed.
    overhead = Yardstick()
    out = overhead.measure(lambda: wls[target].run(0))
    checked(wls[target], out)
    del out

    tracer = Tracer(cs)
    vw = wls["verify-window"]
    lo, _ = vw.window(0)
    order = [target] + [name for name in wls if name != target]
    with tracer:
        for name in order:
            wl = wls[name]
            tracer.run = name
            out = overhead.measure(lambda: wl.run(0)) if name == target else wl.run(0)
            tracer.run = "check"
            checked(wl, out)
            if name == "cli-tuples":
                cli_bytes, cli_lines = out[1].bytes, out[1].lines
            del out
        tracer.run = "predict"
        cs.verify_range(lo, lo + 1, vw.n_max)
        tracer.run = "probe"
        cap = cs.sigma_n(vw.n_max) + 1
        sample = range(lo, lo + min(STOPPING_PROBE_INTS, vw.width))
        stopping_time = cs.stopping_time
        with tracer.span("core.stopping_time", calls=len(sample)):
            for x in sample:
                stopping_time(x, cap)
        cs.kappa.cache_clear()
        with tracer.span("ladder.kappa", calls=KAPPA_PROBE_N):
            for n in range(1, KAPPA_PROBE_N + 1):
                cs.kappa(n)
        cs.build_triangle(TRIANGLE_PROBE_N)

    # Untraced, on the same window: jobs=2 against jobs=1.
    _, jobs1 = _timed(lambda: vw.run(0, jobs=1))
    _, jobs2 = _timed(lambda: vw.run(0, jobs=2))

    untraced, traced = overhead.reference_times()
    t = tracer
    solve_s = t.busy("diophantine.solve_vector", "structure")
    solves = t.calls("diophantine.solve_vector", "structure")
    tuple_solves = t.calls("diophantine.solve_vector", "cli-tuples")
    predict_s = t.busy("verify.verify_range", "predict")
    sieve_records = t.count("records", "verify.sieve", "sieve-deep")
    sieve_survivors = t.count("survivors", "verify.sieve", "sieve-deep")
    stop = t.select("core.stopping_time", "probe")[0]
    metrics = {
        "ptree.vset_levels_s": t.busy("ptree.vset_levels", "structure", "verify.residue_table"),
        "ptree.vectors": t.count("vectors", "ptree.vset_levels", "structure"),
        "ptree.phn_counts_s": t.busy("ptree.phn_counts", "structure"),
        "ptree.lex_tuples_s": t.busy("ptree.lex_tuples", "cli-tuples"),
        "ptree.tuples": t.count("tuples", "ptree.lex_tuples", "cli-tuples"),
        "diophantine.solve_s": solve_s,
        "diophantine.solves": solves,
        "diophantine.solves_per_s": solves / solve_s,
        "diophantine.member_ratio": t.count("members", "diophantine.solve_vector", "cli-tuples") / tuple_solves,
        "verify.residue_table_self_s": t.self_time("verify.residue_table", "structure"),
        "verify.predict_s": predict_s,
        "verify.scan_s": t.busy("verify.verify_range", "verify-window") - predict_s,
        "core.stopping_time_per_s": stop["calls"] / stop["busy_s"],
        "verify.beyond_table": t.count("beyond_table", "verify.verify_range", "verify-window"),
        "verify.jobs2_speedup": jobs1 / jobs2,
        "verify.sieve_s": t.busy("verify.sieve", "sieve-deep"),
        "verify.sieve_records": sieve_records,
        "verify.sieve_survivors": sieve_survivors,
        "verify.sieve_survival_ratio": sieve_survivors / sieve_records,
        "cli.main_s": t.busy("cli.main", "cli-tuples"),
        "cli.self_s": t.self_time("cli.main", "cli-tuples"),
        "cli.bytes_out": cli_bytes,
        "cli.lines_out": cli_lines,
        "triangle.build_s": t.busy("triangle.build_triangle", "probe"),
        "ladder.kappa_cold_s": t.busy("ladder.kappa", "probe"),
        "trace.overhead_share": traced / untraced - 1,
    }
    return metrics, tracer
