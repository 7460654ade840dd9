#!/usr/bin/env python3
"""Benchmark of the pseudoherm pipeline: analyze -> operators -> krein -> evolve,
and the command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One caller drives the public API in a closed loop: the next op
starts when the previous one has returned, BLAS runs one thread, and the
loop makes passes over the seeded pool, each input once per pass, until
``--seconds`` have passed and at least ``MIN_PASSES`` passes are done.  A
fixed reference kernel is timed between ops, and latencies are reported in
its units (see ``latencies``).  The known-defect inputs run once, untimed,
and their outcomes are printed.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` reruns the same loop with spans around every public
call and prints the per-layer metrics.  The last stdout line is the JSON
result; the lines before it give the machine, the sample counts and the
defect outcomes, and the same record, with the spans of a traced run, is
written under ``perfbench/out/``.

A wrong result (an analyzed block structure other than the synthesized
one, a wrong class or existence decision, a probability outside [0, 1], a
CLI output that does not parse) ends the run with exit code 1 and no result
line.  Missing source ends it with exit code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_REPEATS = 5       # fresh-interpreter set-ups per run; setup_s is their median
MIN_PASSES = 3          # passes over the pool, whatever --seconds says
TAIL_PERCENTILE = 90    # op_ref_tail: nearest-rank percentile of the inputs' latencies
PROBE_REPEATS = 3       # `python -c pass` / `import pseudoherm` probes in a traced run
REPLAYS = 6             # pool matrices replayed through cli.main / serialization per traced library run
LAYERS = ("spectral", "operators", "krein", "evolution")
#: spans timed outside the ops of a library workload, each counted wherever it occurs
OUTSIDE_OPS = ("linalg.eigenvalues", "cli.main")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("small-mixed", "large-defective", "long-evolution", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once (import, inputs, one warm-up op) and exit")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# workloads


class LibraryWorkload:
    def __init__(self, name, seed):
        import inputs
        import pipeline
        self.pipeline = pipeline
        self.items, self.defects = inputs.generate(name, seed)
        self.digest = inputs.digest(self.items + self.defects)
        self.peak_rss_kib = 0

    def run(self, case):
        return self.pipeline.run_op(case)

    def judge(self, case, out):
        """(status, expected refusals, residual ratio, why failed)."""
        return self.pipeline.judge(case, out)

    def analyze_refused(self, case, out):
        return "dec" not in out

    def traced_extra(self, case, tracer):
        from pseudoherm import linalg
        with tracer.span("linalg.eigenvalues"):
            linalg.eigenvalues(case.h)

    def close(self):
        self.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class CliWorkload:
    def __init__(self, name, seed):
        import clirun
        self.clirun = clirun
        self.work = OUT / f"work-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.items, self.hamiltonians, self.defects = clirun.fixtures(seed, self.work)
        self.digest = _digest_files(self.work, [c.argv for c in self.items + self.defects])
        self.env = clirun.child_env(SRC)
        self.peak_rss_kib = 0

    def run(self, cmd):
        elapsed, code, stdout, rss = self.clirun.run_child(cmd, self.env, self.work)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        return code, stdout

    def judge(self, cmd, out):
        status, ratio, why = self.clirun.judge(cmd, *out)
        return status, int(status == "ok" and cmd.expect == 3), ratio, why

    def analyze_refused(self, cmd, out):
        return cmd.argv[0] == "analyze" and out[0] != 0

    def traced_extra(self, cmd, tracer):
        from pseudoherm import cli
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with tracer.span("cli.main"):
                cli.main(list(cmd.argv))

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def _digest_files(work, argvs):
    sha = hashlib.sha256()
    for path in sorted(work.iterdir()):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    sha.update(repr([[a.replace(str(work), "") for a in argv] for argv in argvs]).encode())
    return sha.hexdigest()


def make_workload(name, seed):
    return (CliWorkload if name == "cli" else LibraryWorkload)(name, seed)


# ---------------------------------------------------------------------------
# measurement


def measure(w, seconds, ref, tracer=None):
    """Passes over the pool in order, each input once per pass, until
    ``seconds`` have passed and at least ``MIN_PASSES`` passes are done.

    ``ref`` is sampled before every op and once after the last; each
    completed op is kept as ``(input index, index of the sample before it,
    seconds)``.  Every op is judged.  The program is deterministic (one BLAS
    thread), so an input fails on every pass or on none, and the result
    line counts inputs: ``attempted`` is the pool size and ``failed`` the
    inputs that failed, the same in every run of one seed however many
    passes fit in ``seconds``.
    """
    best = [math.inf] * len(w.items)
    times, busy, attempted, refusals, worst = [], 0.0, 0, 0, 0.0
    failures = Counter()
    failed_inputs = set()
    passes = 0
    ops = []
    start = perf_counter()
    while passes < MIN_PASSES or perf_counter() - start < seconds:
        for k, item in enumerate(w.items):
            ref.sample()
            op_span = contextlib.nullcontext()
            if tracer is not None:
                tracer.op = attempted
                op_span = tracer.span("op")
            with op_span:
                t0 = perf_counter()
                out = w.run(item)
                dt = perf_counter() - t0
            if tracer is not None:
                w.traced_extra(item, tracer)
                tracer.op = None
            status, refused, ratio, why = w.judge(item, out)
            attempted += 1
            busy += dt
            refusals += refused
            if status == "ok":
                times.append(dt)
                ops.append((k, len(ref.samples) - 1, dt))
                best[k] = min(best[k], dt)
                worst = max(worst, ratio)
            else:
                failures[f"{item.label}: {why}"] += 1
                failed_inputs.add(k)
        passes += 1
    ref.sample()
    return {"ops": ops, "times": times, "best": [b for b in best if b < math.inf], "busy": busy,
            "attempted": attempted, "refusals": refusals, "passes": passes,
            "failed_inputs": len(failed_inputs),
            "residual_ratio_max": worst, "failures": failures,
            "wall": perf_counter() - start}


def probe_defects(w):
    """Run each known-defect input once, untimed: ``{label: outcome}`` and
    the count refused by ``analyze``.  A wrong answer still raises."""
    outcomes, analyze_refused = {}, 0
    for item in w.defects:
        out = w.run(item)
        status, _, _, why = w.judge(item, out)
        outcomes[item.label] = why or status
        analyze_refused += status != "ok" and w.analyze_refused(item, out)
    return outcomes, analyze_refused


def latencies(m, ref):
    """Per-input latencies, summarised over the inputs by the geometric mean
    (reference units) or the median (ms) and by the nearest-rank
    ``TAIL_PERCENTILE``.

    In reference units, an input's latency is the lower quartile over its
    passes of (op time / mean of the reference samples around the op); the
    lower quartile drops the passes in which the host changed speed during
    the op, and the geometric mean over the inputs averages out what is left
    while weighting every input alike.  In ms, it is the input's fastest
    pass.  On this kind of shared
    host the same op runs at one of two speeds about 1.8x apart, and the
    share of slow time drifts from minute to minute: the ms figures follow
    it, the reference units do not.
    """
    samples = ref.samples
    ratios = defaultdict(list)
    for k, i, dt in m["ops"]:
        ratios[k].append(dt / (0.5 * (samples[i] + samples[i + 1])))
    per_input = sorted(statistics.quantiles(v, n=4)[0] if len(v) > 1 else v[0]
                       for v in ratios.values())
    best = sorted(m["best"])

    def tail(values):
        return values[math.ceil(TAIL_PERCENTILE * len(values) / 100) - 1]

    return {"p50_ms": 1e3 * statistics.median(best), "tail_ms": 1e3 * tail(best),
            "ref_ms": 1e3 * ref.best, "gmean_ref": statistics.geometric_mean(per_input),
            "tail_ref": tail(per_input)}


def end_to_end(lat, setup, peak_rss_kib):
    return {
        "op_ref_gmean": (lat["gmean_ref"], "ref"),
        "op_ref_tail": (lat["tail_ref"], "ref"),
        "peak_rss_mb": (peak_rss_kib / 1024.0, "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(w, m, lat, tracer, probes, replay, defects):
    from tracing import END, NAME, OP, PARENT, RAISED, START, TRACED, self_times
    spans = tracer.spans
    own = self_times(spans)
    dur = defaultdict(list)
    layer_self = defaultdict(float)
    op_total = 0.0
    points = 0
    for i, s in enumerate(spans):
        if s[NAME] in OUTSIDE_OPS:
            dur[s[NAME]].append(s[END] - s[START])
        if s[OP] is None or s[NAME] in OUTSIDE_OPS:
            continue
        d = s[END] - s[START]
        if s[NAME] == "op":
            op_total += d
            continue
        dur[s[NAME]].append(d)
        layer = s[NAME].split(".")[0]
        if layer in LAYERS:
            layer_self[layer] += own[i]
        parent = spans[s[PARENT]][NAME] if s[PARENT] is not None else ""
        if s[NAME] == "evolution.propagator" and parent.endswith(("krein_norm_series",
                                                                   "transition_probability")):
            points += 1
    series = dur["evolution.krein_norm_series"] + dur["evolution.transition_probability"]
    by_n = defaultdict(list)
    if isinstance(w, LibraryWorkload):
        for s in spans:
            if s[NAME] == "spectral.analyze" and s[OP] is not None and not s[RAISED]:
                by_n[w.items[s[OP] % len(w.items)].n].append(s[END] - s[START])
    details = {"analyze_ms_p50_by_n": {n: 1e3 * statistics.median(v)
                                       for n, v in sorted(by_n.items())}}
    if isinstance(w, CliWorkload):
        # the op is the child process; its layers are timed on an in-process replay
        op_total = m["busy"]

    def p50_ms(name):
        if not dur[name]:
            print(f"perfbench: no {name} call in this run; reporting 0", file=sys.stderr)
            return 0.0
        return 1e3 * statistics.median(dur[name])

    traced = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    metrics = {f"{name}_ms": (p50_ms(name), "ms") for name in (*traced, "cli.main")}
    metrics["linalg.schur_ms"] = (p50_ms("linalg.eigenvalues"), "ms")
    op_total = op_total or float("inf")
    for layer in LAYERS:
        metrics[f"{layer}.frac"] = (layer_self[layer] / op_total, "1")
    metrics["spectral.analyze_frac"] = metrics.pop("spectral.frac")
    metrics.update({
        "spectral.refusal_frac": (defects[1] / max(1, len(defects[0])), "1"),
        "defects.failed_frac": (sum(v != "ok" for v in defects[0].values())
                                / max(1, len(defects[0])), "1"),
        "operators.expected_refusals": (m["refusals"] / m["attempted"], "count/op"),
        "evolution.grid_points_per_s": (points / sum(series) if series else 0.0, "1/s"),
        "cli.interpreter_s": (statistics.median(probes["interpreter"]), "s"),
        "cli.import_s": (statistics.median(probes["import"])
                         - statistics.median(probes["interpreter"]), "s"),
        "serialization.load_ms": (1e3 * statistics.median(replay["load"]), "ms"),
        "serialization.dump_ms": (1e3 * statistics.median(replay["dump"]), "ms"),
        "residual_ratio_max": (m["residual_ratio_max"], "1"),
        "trace.op_ms_p50": (lat["p50_ms"], "ms"),
        "trace.op_ref_gmean": (lat["gmean_ref"], "ref"),
        "trace.unattributed_frac": (1.0 - sum(layer_self.values()) / op_total, "1"),
    })
    return metrics, details


def interpreter_probes():
    """Wall time of `python -c pass` and of `python -c "import pseudoherm"`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = {"interpreter": [], "import": []}
    for _ in range(PROBE_REPEATS):
        for key, code in (("interpreter", "pass"), ("import", "import pseudoherm")):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            out[key].append(perf_counter() - t0)
    return out


def replay_outside_ops(w, tracer):
    """Dump/load the inputs' matrices outside any op; library workloads
    also run them through ``cli.main(["analyze", ...])`` and the ``cli``
    workload takes their Schur form."""
    from pseudoherm import cli, linalg, serialization
    times = {"load": [], "dump": []}
    work = OUT / f"replay-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cli_workload = isinstance(w, CliWorkload)
        matrices = w.hamiltonians if cli_workload else [c.h for c in w.items[:REPLAYS]]
        for k, h in enumerate(matrices):
            path = work / f"h{k}.json"
            t0 = perf_counter()
            text = serialization.canonical_dumps(serialization.matrix_to_doc(h))
            times["dump"].append(perf_counter() - t0)
            path.write_text(text, encoding="utf-8")
            t0 = perf_counter()
            serialization.doc_to_matrix(serialization.load_json(str(path)))
            times["load"].append(perf_counter() - t0)
            if cli_workload:
                with tracer.span("linalg.eigenvalues"):
                    linalg.eigenvalues(h)
            else:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()), tracer.span("cli.main"):
                    cli.main(["analyze", "--input", str(path)])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return times


def setup_times(args):
    """Wall time of fresh interpreters that import pseudoherm, build the
    inputs and run one warm-up op."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                        args.workload, "--seed", str(args.seed), "--seconds", "0",
                        "--setup-probe"], check=True)
        out.append(perf_counter() - t0)
    return out


class Reference:
    """A fixed kernel that does not use pseudoherm, about 0.4 ms: a Python
    loop, a 24x24 real eigendecomposition and ten 24x24 complex matmuls.

    It is timed before every op and after the last, outside the ops'
    timing, so every op lies between two samples.  When the host runs
    slower, the kernel and the ops slow down by nearly the same factor, so
    an op's time divided by the mean of its two samples (its cost in
    reference units) does not move.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.normal(size=(24, 24))
        self.b = self.a * (0.1 + 0.1j)
        self.samples = []

    def sample(self):
        np, b = self.np, self.b
        t0 = perf_counter()
        sum(i * i for i in range(2000))
        np.linalg.eig(self.a)
        for _ in range(10):
            b = self.b @ b
        self.samples.append(perf_counter() - t0)

    @property
    def best(self):
        return min(self.samples)


# ---------------------------------------------------------------------------
# environment record


def environment():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads():
    """Thread count each bundled OpenBLAS reports, else the variable we set."""
    import ctypes
    import glob

    import numpy
    import scipy
    out = {}
    for pkg, sym in ((numpy, "scipy_openblas_get_num_threads64_"),
                     (scipy, "scipy_openblas_get_num_threads")):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in glob.glob(str(libdir / "*openblas*")):
            try:
                out[pkg.__name__] = int(getattr(ctypes.CDLL(lib), sym)())
            except (OSError, AttributeError):
                pass
    return out or {"OPENBLAS_NUM_THREADS": BLAS_THREADS}


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    sha = hashlib.sha256()
    for path in sorted((SRC / "pseudoherm").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pseudoherm" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'pseudoherm'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pseudoherm
    from pipeline import WrongResult
    from tracing import Tracer
    if Path(pseudoherm.__file__).resolve().parent != (SRC / "pseudoherm").resolve():
        print(f"perfbench: imported {pseudoherm.__file__}, not the checkout", file=sys.stderr)
        return 2

    if args.setup_probe:
        w = make_workload(args.workload, args.seed)
        try:
            w.judge(w.items[0], w.run(w.items[0]))
        finally:
            w.close()
        return 0

    OUT.mkdir(exist_ok=True)
    setup = setup_times(args)
    w = make_workload(args.workload, args.seed)
    tracer = None
    try:
        w.judge(w.items[0], w.run(w.items[0]))          # warm-up, untimed
        defects = probe_defects(w)
        ref = Reference()
        if args.trace:
            from pseudoherm import evolution, krein, operators, spectral
            tracer = Tracer()
            tracer.install({"spectral": spectral, "operators": operators,
                            "krein": krein, "evolution": evolution})
        m = measure(w, args.seconds, ref, tracer)
        if tracer is not None:
            replay = replay_outside_ops(w, tracer)
            probes = interpreter_probes()
    except WrongResult as exc:
        print(f"perfbench: WRONG RESULT: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.restore()
        w.close()

    if not m["best"]:
        print("perfbench: no op completed", file=sys.stderr)
        return 1
    lat = latencies(m, ref)
    e2e = end_to_end(lat, setup, w.peak_rss_kib)
    counts = {"passes": m["passes"], "inputs": len(w.items),
              "all_ops_ms_p50": 1e3 * statistics.median(m["times"]),
              "completed_per_wall_s": len(m["times"]) / m["wall"]}
    metrics, details = (per_layer(w, m, lat, tracer, probes, replay, defects) if args.trace
                        else (e2e, {}))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "inputs_sha256": w.digest,
        "closed_loop": {"callers": 1, "blas_threads": BLAS_THREADS},
        "latency": lat, "reference_ms_p50": 1e3 * statistics.median(ref.samples),
        "ref_samples": ref.samples, "op_samples": m["ops"],
        "attempted": m["attempted"], "completed": len(m["times"]),
        "inputs_failed": m["failed_inputs"],
        "failures": dict(m["failures"]), "defects": defects[0], "wall_s": m["wall"],
        "setup_samples_s": setup,
        **counts, **details, "end_to_end": {k: v[0] for k, v in e2e.items()},
        "residual_ratio_max": m["residual_ratio_max"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.csv.gz")

    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"inputs_sha256 {w.digest}")
    print(f"reference kernel: fastest {lat['ref_ms']:.4g} ms, median "
          f"{1e3 * statistics.median(ref.samples):.4g} ms over {len(ref.samples)} samples")
    print(f"fastest pass per input: p50 {lat['p50_ms']:.4g} ms, "
          f"p{TAIL_PERCENTILE} {lat['tail_ms']:.4g} ms")
    print(f"ops attempted {m['attempted']} completed {len(m['times'])} in {m['wall']:.2f} s: "
          f"{m['passes']} passes over {len(w.items)} inputs; over every op, "
          f"p50 {counts['all_ops_ms_p50']:.4g} ms and {counts['completed_per_wall_s']:.4g} ops/s")
    for key, n in sorted(m["failures"].items()):
        print(f"failed {n:5d}  {key}")
    for label, outcome in defects[0].items():
        print(f"known defect {label}: {outcome}")
    for n, ms in details.get("analyze_ms_p50_by_n", {}).items():
        print(f"spectral.analyze completed at n={n}: p50 {ms:.4g} ms")
    if not args.trace:
        print(f"residual_ratio_max {m['residual_ratio_max']:.6g} 1")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": True, "attempted": len(w.items), "failed": m["failed_inputs"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
