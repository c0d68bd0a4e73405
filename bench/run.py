"""resokit benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a resokit checkout. Prints one JSON object as the last
line of stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). A detailed record (environment, sample counts, trace
totals) goes to ``bench/out/``. ``--smoke`` runs each workload at minimal
size. See bench/README.md.
"""

import time

_T0 = time.time()

import os  # noqa: E402

# One BLAS thread. nproc is 2 here, and with two OpenBLAS threads a
# 126-dof eigensolve took 25x longer than with one and varied up to 8x
# from call to call, which would drown the library's own cost.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 3       # fresh processes timed for setup_s; the median is reported
MAX_FAILURE_NOTES = 20
MAX_SPANS_WRITTEN = 20000   # an optimize-sweep pass records ~10^5 spans


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("fem-converge", "optimize-sweep", "design-batch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal inputs, one pass (two with --trace 1)")
    p.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _make_workload(args, workdir):
    import workloads

    w = workloads.WORKLOADS[args.workload](ROOT, smoke=args.smoke)
    w.make(args.seed, workdir)
    w.warm()
    return w


def _setup_probe(args, spawn):
    """Child side of a setup_s sample: imports, inputs, warm caches."""
    t_import = time.perf_counter()
    import resokit.cli  # noqa: F401  (every layer module)
    import_ms = (time.perf_counter() - t_import) * 1e3
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        _make_workload(args, workdir)
        ready = time.time()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"interp_ms": (_T0 - spawn) * 1e3, "import_ms": import_ms,
                      "setup_s": ready - spawn}))
    return 0


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    return env


def _measure_setup(args, samples):
    """Time one fresh process doing the run's setup; append its timings."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", repr(time.time())]
    proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []), cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr[-500:]}")
    samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))


def _git_sha():
    """HEAD commit read from .git files, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _environment(args, tail_pct):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        blas = {"name": None, "version": None}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas["name"],
            "blas_version": blas["version"], "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "git_sha": _git_sha(), "seed": args.seed, "tail_percentile": tail_pct}


def _rank(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(pct / 100.0 * len(sorted_values))) - 1]


def _run_passes(w, args, rec, setup):
    """Timed phase: whole passes, as many as fit in --seconds (at least one).

    With a recorder, passes alternate untraced / traced and the run ends
    after a traced pass, so both kinds are compared over the same inputs.
    Setup probes are spread over the phase, between passes, so that one
    slow spell of the machine does not hold all of them; their time does
    not count towards --seconds.
    """
    from tracer import Totals

    passes, notes = [], []
    totals = Totals()
    first_spans = None
    start = time.perf_counter()
    probe_s = 0.0
    index = 0
    while True:
        traced = rec is not None and index % 2 == 1
        ops = w.ops(index)
        state, lat, labels, failed = {}, [], [], 0
        if traced:
            rec.install()
        for op in ops:
            if traced:
                rec.op = f"{index}:{len(lat)}"
                span = rec.open("op")
            t = time.perf_counter()
            try:
                out, err = w.run(op), None
            except Exception:
                out, err = None, traceback.format_exc(limit=3)
            dt = time.perf_counter() - t
            if traced:
                rec.close(span)
                rec.paused = True
            if err is None:
                try:
                    w.check(op, out, state)
                except Exception as exc:
                    err = f"{type(exc).__name__}: {exc}"
            if traced:
                rec.paused = False
            del out
            lat.append(dt)
            labels.append(w.label(op))
            if err is not None:
                failed += 1
                if len(notes) < MAX_FAILURE_NOTES:
                    notes.append(f"pass {index} op {len(lat) - 1}: {err}")
        if traced:
            rec.uninstall()
            totals.add(rec.spans)
            if first_spans is None:
                first_spans = rec.spans
            rec.spans = []
        passes.append({"traced": traced, "latencies": lat, "labels": labels,
                       "failed": failed})
        index += 1
        if rec is not None and index % 2 == 1:
            continue
        # start another pass (or pair) only if it should end within --seconds
        elapsed = time.perf_counter() - start - probe_s
        if not args.smoke and elapsed >= len(setup) * args.seconds / (SETUP_PROBES - 1):
            t = time.perf_counter()
            _measure_setup(args, setup)
            probe_s += time.perf_counter() - t
        step = elapsed / index * (2 if rec is not None else 1)
        if args.smoke or elapsed + step > args.seconds:
            break
    return passes, notes, totals, first_spans


def _end_to_end(passes, setup, w, tail_pct):
    """End-to-end metrics from the run's passes.

    An operation is what one label names (``Workload.label``); each of its
    runs gives it one latency sample. Its latency is the fastest of those
    samples. This machine's CPU speed drops by 30-60% under its
    neighbours' load, for seconds to minutes at a time, and a mean or
    median over the run moves with the share of the run spent slow; the
    fastest sample estimates the operation's own cost. ``wall_s`` sums the
    operations' latencies, less those the workload keeps for the
    percentiles only (``tail_only``: design-batch's cold disk).
    """
    samples = {}   # label -> latency samples, in order of first run
    for p in passes:
        for label, x in zip(p["labels"], p["latencies"]):
            samples.setdefault(label, []).append(x)
    per_op = {label: min(xs) for label, xs in samples.items()}
    in_wall = [x for label, x in per_op.items() if label not in w.tail_only]
    wall = sum(in_wall)
    ranked = sorted(per_op.values())
    tail = _rank(ranked, tail_pct)
    tail_op = next(label for label, x in per_op.items() if x == tail)
    raw = [x for p in passes for x in p["latencies"]]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
        "wall_s": (wall, "s"),
        "op_p50_ms": (_rank(ranked, 50) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "ops_per_s": (len(in_wall) / wall, "1/s"),
        "peak_rss_mb": (w.peak_rss_mb(), "MB"),
    }
    by_kind = {}
    for label, xs in samples.items():
        by_kind.setdefault(label.split("#")[0], []).extend(x * 1e3 for x in xs)
    detail = {"samples": len(raw), "ops_in_wall": len(in_wall), "operations": len(per_op),
              "tail_percentile": tail_pct,
              "tail_op": tail_op,
              "tail_op_samples_ms": sorted(x * 1e3 for x in samples[tail_op]),
              "samples_beyond_tail": sum(x > tail for x in raw),
              "passes": len(passes),
              "pass_times_s": [sum(p["latencies"]) for p in passes],
              "op_mean_ms": {k: statistics.fmean(v) for k, v in sorted(by_kind.items())}}
    return metrics, detail


def _per_layer(passes, setup, totals):
    traced = [sum(p["latencies"]) for p in passes if p["traced"]]
    plain = [sum(p["latencies"]) for p in passes if not p["traced"]]
    n = len(traced)
    timings = [(s["interp_ms"], s["import_ms"]) for s in setup]
    optimize_s = totals.optimize_ms / 1e3
    c, mx = totals.counts, totals.maxima
    pass_ms = statistics.mean(traced) * 1e3
    metrics = {
        "cli.interp_ms": (statistics.median(t[0] for t in timings), "ms"),
        "cli.import_ms": (statistics.median(t[1] for t in timings), "ms"),
        "core.config_ms": (totals.layer_ms("core") / n, "ms"),
        "fem.mesh_ms": (totals.layer_ms("fem", "mesh") / n, "ms"),
        "fem.assemble_ms": (totals.layer_ms("fem", "assemble") / n, "ms"),
        "fem.solve_ms": (totals.layer_ms("fem", "solve") / n, "ms"),
        "fem.reduce_ms": (totals.layer_ms("fem", "reduce") / n, "ms"),
        "fem.dof": (mx["dof"], "count"),
        "fem.matrix_bytes": (mx["matrix_bytes"], "B"),
        "fem.max_resid": (mx["max_resid"], "ratio"),
        "analytic.busy_ms": (totals.layer_ms("analytic") / n, "ms"),
        "analytic.calls": (c["analytic_calls"] / n, "count"),
        "analytic.shape_samples": (c["shape_samples"] / n, "count"),
        "analytic.root_misses": (c["root_misses"] / n, "count"),
        "analytic.cold_root_ms": (totals.cold_root_ms / c["root_misses"]
                                  if c["root_misses"] else 0.0, "ms"),
        "analytic.cold_root_frac": (totals.cold_root_ms / n / pass_ms, "ratio"),
        "design.optimize_ms": (totals.optimize_ms / n, "ms"),
        "design.mode_evals": (c["mode_evals"] / n, "count"),
        "design.evals_per_s": (c["mode_evals"] / optimize_s if optimize_s else 0.0, "1/s"),
        "design.busy_ms": (totals.layer_ms("design") / n, "ms"),
        "transduction.spectrum_ms": (totals.layer_ms("transduction", "spectrum") / n, "ms"),
        "transduction.busy_ms": (totals.layer_ms("transduction") / n, "ms"),
        "fab.busy_ms": (totals.layer_ms("fab") / n, "ms"),
        "trace.overhead_frac": (statistics.fmean(traced) / statistics.fmean(plain) - 1.0,
                                "ratio"),
    }
    detail = {"traced_passes": n, "untraced_passes": len(plain),
              "traced_pass_s": traced, "untraced_pass_s": plain,
              "totals": totals.to_dict()}
    return metrics, detail


def _write_spans(path, spans):
    from tracer import (COUNTS, END, LAYER, NAME, OP, PARENT, STAGE,
                        START)

    with open(path, "w") as f:
        for i, s in enumerate(spans[:MAX_SPANS_WRITTEN]):
            f.write(json.dumps({"id": i, "name": s[NAME], "layer": s[LAYER],
                                "stage": s[STAGE], "start": s[START], "end": s[END],
                                "parent": s[PARENT], "op": s[OP],
                                "counts": s[COUNTS]}) + "\n")


def main(argv=None) -> int:
    args = _parse_args(argv)
    for need in (os.path.join(SRC, "resokit", "__init__.py"), os.path.join(ROOT, "configs")):
        if not os.path.exists(need):
            print(f"error: {need} not found; run from a resokit checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    if args.setup_probe is not None:
        return _setup_probe(args, args.setup_probe)

    # byte-compile resokit first, as an installed package is, so that no
    # timed process pays for compiling it
    compileall.compile_dir(os.path.join(SRC, "resokit"), quiet=1)
    setup = []
    _measure_setup(args, setup)

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        import tracer

        w = _make_workload(args, workdir)
        rec = tracer.Recorder() if args.trace else None
        passes, notes, totals, first_spans = _run_passes(w, args, rec, setup)
        while not args.smoke and len(setup) < SETUP_PROBES:
            _measure_setup(args, setup)
        late = w.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    for count, note in late:
        failed += count
        notes.append(note)
    if args.trace:
        metrics, detail = _per_layer(passes, setup, totals)
    else:
        metrics, detail = _end_to_end(passes, setup, w, w.tail_pct)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "environment": _environment(args, w.tail_pct),
              "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted, "failures": notes,
              "setup_probes": setup, **detail,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    if first_spans is not None:
        _write_spans(os.path.join(OUT, tag + ".spans.jsonl"), first_spans)
    for note in notes:
        print(f"failure: {note}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
