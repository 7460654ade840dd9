#!/usr/bin/env python3
"""Per-layer timings of one library op, and the tracked refusal counts.

    python3 tools/bench_layers.py [--src path/to/src] [--out BENCH_layers.json]

Times the layers of one ``analyze -> operators -> krein -> evolve`` op on a
grid of synthesized inputs (basis condition 100, fixed seeds): n in
{2, 4, 16, 32, 64} times three structures,

    simple   simple real eigenvalues and n // 4 simple conjugate pairs
    jordan   real Jordan blocks (``JORDAN_BLOCKS``) among simple real ones
    paired   max(1, n // 4) real groups of two 1-blocks (the identical block
             pairs of the reflecting symmetry) among simple real ones

Each layer is timed alone, on the intermediate results of one ``analyze``:

    schur          linalg.schur
    clustering     spectral.default_cluster_tol, _cluster, the cluster
                   table (_cluster_table: sizes, centers and radii) and
                   _check_gaps
    staircase      spectral._extract_chains on the reordered Schur block of
                   each cluster that analyze sends to the rank staircase
                   (its defective ones), per cluster (absent without one)
    assembly       spectral._assemble of the analyzed chain basis, called with
                   what analyze passed it (each group's eigenvalue and block
                   sizes, the pair tolerance, S and S^-1)
    chain_product  one operators._chain_product (the parity's)
    congruence     krein.congruence_to_involutory
    classify       the op's two krein.classification_report calls against the
                   parity P, of the propagator of one step and of TP, the
                   first deciding P afresh from its K (the decisions P's
                   chain form keeps are dropped first)
    evolution      evolution.propagator over one step of 0.05: U(t) in the
                   chain basis of analyze(H), the kept decomposition after
                   an op's analysis, so the call costs a memo lookup
    expm           linalg.expm of -0.05i H: the kernel of the series'
                   per-point route, and of the propagator on an H that
                   analyze refuses or whose decomposition does not
                   reconstruct it to rounding
    gate           evolution._decomposition of the krein_series request: the
                   pseudo-Hermiticity decision that opens each series
    krein_series   evolution.krein_norm_series under the parity P
    probability    evolution.transition_probability under the positive
                   metric P+ (absent where P+ does not exist)

Both series run on ``GRID_POINTS`` uniform points from 0 to
``min(GRID_END, 0.8 EXPM_NORM_BOUND / ||H||_F)``.  Each sample of the
classification, the propagator, the gate and the series is preceded,
untimed, by the state it meets in an op: ``spectral.analyze(h)`` and the
row's P and P+ built afresh, so that their chain forms (``linalg.ChainForm``)
keep no metric decision, as is each call that sizes its batch.  So a sample
does not depend on which metric the layer timed before it left decided, and
the first call of each sample decides its metric.

A sample repeats one layer's call for about ``BATCH_S`` and is timed
between two samples of the benchmark's reference kernel (``perfbench/
run.py``'s ``Reference``); it is written per call (for the staircase, per
cluster) in ms and in reference units, its time over the mean of the two
reference samples, so that the host's speed changes cancel.  Each of
``PROCESSES`` fresh worker processes, run one after another, makes
``REPEATS`` rounds, each timing every layer of every row once, so a
layer's samples spread over the whole run.  A layer's time depends on what
the layer timed before it left in the caches, so the layer order changes
every round (``round_order``): over any ``len(LAYERS)`` rounds each layer
follows each other layer of its row once, and a layer whose neighbour
changed between two trees is not measured after that neighbour alone.  The workers' samples are pooled:
the same code measured in two processes can differ by 10-30% at n <= 16,
more than within one process, and the pooled quartiles show that spread.
Per row and layer the file holds the median and the quartiles (q1, q3) in
both units.  BLAS runs one thread, set by importing ``perfbench/run.py``
before numpy.

The file also holds the tracked refusal counts: the one-block ensemble
(``_spec`` of ``tests/test_spectral.py`` with n in {16, 32}, p = 1..8, cond
1..1e3, seeds 0..4), the metamorphic table and the basis-condition sweep
(per structure and condition) of ``tests/test_spectral.py`` and the model
sweep of ``tests/test_evolution.py``, with the wrong and over threshold or
failing counts beside them, and the gate's scale sweep of
``tests/test_evolution.py`` (``_gate_scale_sweep``): the cases that either
evolution series refuses with ``NotPseudoHermitian`` although
``is_pseudo_hermitian`` accepts them.

``--src`` picks the pseudoherm source tree to run (default: this checkout's
``src``), so that a change and its parent are measured by one copy of this
tool; each row's ``input_sha256`` shows that both timed the same matrices.
Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SIZES = (2, 4, 16, 32, 64)
STRUCTURES = ("simple", "jordan", "paired")
#: the real Jordan blocks of the ``jordan`` rows, per n
JORDAN_BLOCKS = {2: (2,), 4: (3,), 16: (4, 2), 32: (5, 3, 2), 64: (5, 4, 3, 2)}
LAYERS = ("schur", "clustering", "staircase", "assembly", "chain_product", "congruence",
          "classify", "evolution", "expm", "gate", "krein_series", "probability")
#: the layers each of whose samples follows an untimed ``prepare`` (``_calls``)
PREPARED = ("classify", "evolution", "gate", "krein_series", "probability")
COND = 100.0
STEP = 0.05
GRID_POINTS = 200
GRID_END = 4.0
BATCH_S = 2e-4  # a sample repeats a layer's call for about this long
PROCESSES = 5   # worker processes, one after another
REPEATS = 21    # rounds over the grid per worker


def _spec(structure: str, n: int):
    """The synthesis spec of one grid row: real parts 0.6 or more apart,
    pair members 0.6 to 2 apart, basis condition ``COND``."""
    import numpy as np

    from pseudoherm.spectral import JordanBlockSpec, SynthesisSpec

    rng = np.random.default_rng([n, STRUCTURES.index(structure)])
    dims = {"simple": [], "jordan": [(p,) for p in JORDAN_BLOCKS[n]],
            "paired": [(1, 1)] * max(1, n // 4)}[structure]
    pairs = n // 4 if structure == "simple" else 0
    dims += [(1,)] * (n - 2 * pairs - sum(map(sum, dims)))
    pos = np.arange(len(dims) + pairs) - 0.5 * (len(dims) + pairs - 1)
    pos = rng.permutation(pos + rng.uniform(-0.2, 0.2, pos.size))
    groups = [JordanBlockSpec(x, d) for x, d in zip(pos, dims)]
    for x in pos[len(dims):]:
        z = x + 1j * rng.uniform(0.3, 1.0)
        groups += [JordanBlockSpec(z, (1,)), JordanBlockSpec(np.conj(z), (1,))]
    return SynthesisSpec(groups=tuple(groups), basis_seed=int(rng.integers(2 ** 62)),
                         basis_cond=COND)


def _calls(h):
    """``{layer: zero-argument call}`` on the intermediate results of one
    ``analyze(h)``, caught by wrapping ``_extract_chains`` and ``_assemble``."""
    import numpy as np

    from pseudoherm import evolution, krein, linalg, operators, spectral
    from pseudoherm.errors import MathematicalRefusal

    blocks, assembled = [], []
    extract, assemble = spectral._extract_chains, spectral._assemble

    def spy_extract(b, tol):
        blocks.append((b, tol))
        return extract(b, tol)

    def spy_assemble(*args):
        assembled.append(args)
        return assemble(*args)

    spectral._extract_chains, spectral._assemble = spy_extract, spy_assemble
    try:
        dec = spectral.analyze(h)
    finally:
        spectral._extract_chains, spectral._assemble = extract, assemble
    eigs = np.diag(linalg.schur(h)[0])

    def clustering():
        delta = spectral.default_cluster_tol(h)
        _, centers, radii = spectral._cluster_table(eigs, spectral._cluster(eigs, delta))
        spectral._check_gaps(centers, radii, delta)

    def staircase():
        for b, tol in blocks:
            extract(b, tol)

    signs = operators._sign_array(dec, "canonical")
    tp = operators.build_tp(dec)
    step = evolution.propagator(h, STEP)
    grid = tuple(np.linspace(0.0, min(GRID_END, 0.8 * linalg.EXPM_NORM_BOUND / np.linalg.norm(h)),
                             GRID_POINTS))
    psi0 = np.array([1, 1j]) @ np.random.default_rng(h.shape[0]).normal(size=(2, h.shape[0]))
    try:
        operators.build_positive_metric(dec)
        definite = True
    except MathematicalRefusal:
        definite = False
    requests = {}

    def prepare():
        """The state of an op before a layer that reads H's analysis or a
        metric: H analyzed, its P and P+ just built and no metric decided."""
        spectral.analyze(h)
        requests["series"] = evolution.EvolutionRequest(
            h=h, metric=operators.build_parity(dec), initial_state=psi0, t_grid=grid)
        if definite:
            requests["probability"] = evolution.EvolutionRequest(
                h=h, metric=operators.build_positive_metric(dec), initial_state=psi0, t_grid=grid)

    def classify():
        requests["series"].metric.form.decisions.clear()
        krein.classification_report(step, requests["series"].metric)
        krein.classification_report(tp, requests["series"].metric)

    prepare()
    calls = {"schur": lambda: linalg.schur(h),
             "clustering": clustering,
             "staircase": staircase if blocks else None,
             "assembly": lambda: assemble(*assembled[0]),
             "chain_product": lambda: operators._chain_product(dec, "P", dec.phi, dec.phi_dag,
                                                               signs),
             "congruence": lambda: krein.congruence_to_involutory(dec),
             "classify": classify,
             "evolution": lambda: evolution.propagator(h, STEP),
             "expm": lambda: linalg.expm(-1j * STEP * h),
             "gate": lambda: evolution._decomposition(requests["series"]),
             "krein_series": lambda: evolution.krein_norm_series(requests["series"]),
             "probability": (lambda: evolution.transition_probability(
                 requests["probability"], psi0[::-1])) if definite else None}
    return (calls, prepare, len(blocks),
            sorted(g.block_dims for g in dec.groups if sum(g.block_dims) > 1))


def round_order(r: int) -> list[str]:
    """The layers in the order of round r: the zig-zag 0, 1, L-1, 2, L-2, ...
    of their indices, L = ``len(LAYERS)`` (even), each shifted by r mod L.
    These are the rows of a Williams square: the steps between neighbours
    are the L - 1 distinct nonzero residues, so over L rounds each layer
    follows each other layer exactly once."""
    size = len(LAYERS)
    zigzag = [0] + [(k + 1) // 2 if k % 2 else size - k // 2 for k in range(1, size)]
    return [LAYERS[(i + r) % size] for i in zigzag]


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def sample_layers(ref) -> tuple[list[dict], dict]:
    """The grid rows, and per ``"row/layer"`` the samples of ``REPEATS``
    rounds in ms and in reference units; each round times every layer of
    every row once, in the order ``round_order`` gives, so that each
    layer's samples spread over the run and over the layers before it."""
    import numpy as np

    from pseudoherm.spectral import synthesize

    rows, plans, samples = [], [], {}
    for n in SIZES:
        for structure in STRUCTURES:
            h, _ = synthesize(_spec(structure, n))
            calls, prepare, clusters, blocks = _calls(h)
            plans.append({})
            rows.append({"n": n, "structure": structure, "staircase_clusters": clusters,
                         "nontrivial_groups": [list(d) for d in blocks],
                         "input_sha256": hashlib.sha256(np.ascontiguousarray(h).tobytes())
                         .hexdigest()})
            for name, call in calls.items():
                if call is not None:
                    before = prepare if name in PREPARED else None
                    for _ in range(2):  # warm up, then size the batch from one timed call
                        if before is not None:
                            before()
                        t0 = perf_counter()
                        call()
                    batch = max(1, round(BATCH_S / (perf_counter() - t0)))
                    key = f"{len(rows) - 1}/{name}"
                    samples[key] = {"calls_per_sample": batch, "ms": [], "ref": []}
                    plans[-1][name] = (call, batch,
                                       batch * (clusters if name == "staircase" else 1),
                                       samples[key], before)
    ref.sample()
    for r in range(REPEATS):
        order = round_order(r)
        for call, batch, per_call, out, before in (
                plan[name] for plan in plans for name in order if name in plan):
            if before is not None:
                before()
            t0 = perf_counter()
            for _ in range(batch):
                call()
            dt = (perf_counter() - t0) / per_call
            ref.sample()
            out["ms"].append(1e3 * dt)
            out["ref"].append(dt / (0.5 * (ref.samples[-2] + ref.samples[-1])))
    return rows, samples


def layer_rows(src: Path) -> tuple[list[dict], list[float]]:
    """The grid rows with each layer's median and quartiles over the samples
    of ``PROCESSES`` fresh worker processes, and the workers' reference
    samples in s."""
    runs = [json.loads(subprocess.run(
        [sys.executable, __file__, "--worker", "--src", str(src)], check=True,
        capture_output=True, text=True).stdout) for _ in range(PROCESSES)]
    rows = runs[0]["rows"]
    if any(run["rows"] != rows for run in runs):
        raise RuntimeError("the workers timed different inputs")
    for i, row in enumerate(rows):
        row["layers"] = dict.fromkeys(LAYERS)
        for name in LAYERS:
            parts = [run["samples"].get(f"{i}/{name}") for run in runs]
            if parts[0] is not None:
                row["layers"][name] = {
                    "calls_per_sample": [part["calls_per_sample"] for part in parts],
                    **{unit: _summary([x for part in parts for x in part[unit]])
                       for unit in ("ms", "ref")}}
    return rows, [x for run in runs for x in run["reference_s"]]


def refusal_counts() -> dict:
    """The tracked refusal counts, each with its wrong and over-threshold
    counts, from the generators of the tier-1 tests."""
    import numpy as np

    import test_evolution as te
    import test_spectral as ts
    from pseudoherm import evolution
    from pseudoherm.errors import NotPseudoHermitian, PseudohermError
    from pseudoherm.linalg import DEFAULT_TOL
    from pseudoherm.spectral import analyze, synthesize

    ensemble = {"refused": 0, "wrong": 0, "over_threshold": 0, "of": 0}
    for n in (16, 32):
        for p in range(1, 9):
            for cond in (1.0, 10.0, 100.0, 1e3):
                for seed in range(5):
                    rng = np.random.default_rng([n, p, int(cond), seed])
                    h, dec_syn = synthesize(ts._spec(rng, n, (p,), cond=cond))
                    ensemble["of"] += 1
                    try:
                        dec = analyze(h)
                    except PseudohermError:
                        ensemble["refused"] += 1
                        continue
                    if not ts._same_structure(dec, dec_syn):
                        ensemble["wrong"] += 1
                    elif not all(r <= DEFAULT_TOL.scaled(h)
                                 for r in ts._chain_residuals(h, dec).values()):
                        ensemble["over_threshold"] += 1

    scaled, transformed = ({"refused": 0, "failing": 0, "wrong": 0, "of": 0} for _ in range(2))
    for _, blocks, pairs in ts.METAMORPHIC_STRUCTURES:
        for seed in range(10):
            rng = np.random.default_rng([8, len(blocks), pairs, seed])
            h, dec_syn = synthesize(ts._spec(rng, 8, blocks, pairs, cond=10.0))
            q = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))[0]
            for label, h2, c, adjoint in ts._metamorphic_transforms(h, q):
                tally = transformed if label.startswith(("H", "Q")) else scaled
                tally["of"] += 1
                try:
                    dec = analyze(h2)
                except PseudohermError:
                    tally["refused"] += 1
                    continue
                if not ts._same_structure(dec, dec_syn, c, adjoint):
                    tally["wrong"] += 1
                elif ts._failed_checks(h2, dec):
                    tally["failing"] += 1

    sweep = {"refused": 0, "of": 0}
    for k in range(1, 16):
        for s in (10.0 ** -k, -(10.0 ** -k)):
            sweep["of"] += 1
            try:
                analyze(evolution.mashhoon_papini(evolution.MashhoonPapiniParams(1.0, 1.0, s))[0])
            except PseudohermError:
                sweep["refused"] += 1

    gate = {"refused": 0, "of": 0}
    for *_, accepted, series in te._gate_scale_sweep():
        gate["of"] += 1
        gate["refused"] += accepted is True and NotPseudoHermitian in series
    return {"one_block_ensemble": ensemble, "metamorphic_scaled": scaled,
            "metamorphic_transforms": transformed, "model_sweep": sweep,
            "gate_scale_sweep": gate,
            "basis_cond_sweep": {"conds": list(ts.BASIS_CONDS), "seeds": 10,
                                 **ts._basis_cond_sweep()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the pseudoherm package to run")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave no cache files under perfbench/ or tests/
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench"), str(ROOT / "tests")]
    import run  # sets one BLAS thread before numpy loads

    if args.worker:
        ref = run.Reference()
        for _ in range(20):  # warm up the reference kernel
            ref.sample()
        ref.samples.clear()
        rows, samples = sample_layers(ref)
        print(json.dumps({"rows": rows, "samples": samples, "reference_s": ref.samples}))
        return 0
    env = run.environment()
    source = hashlib.sha256()
    for path in sorted((args.src / "pseudoherm").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    rows, reference = layer_rows(args.src)
    record = {
        "tool": "tools/bench_layers.py", "processes": PROCESSES, "repeats": REPEATS,
        "basis_cond": COND,
        "environment": {k: env[k] for k in ("nproc", "affinity", "cpu", "python", "numpy",
                                             "scipy", "blas_threads")},
        "source_sha256": source.hexdigest(),
        "reference_ms_p50": 1e3 * statistics.median(reference),
        "rows": rows, "refusals": refusal_counts()}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print("n structure " + " ".join(LAYERS) + "  (median ms / median ref units)")
    for row in rows:
        print(f"{row['n']} {row['structure']} " + " ".join(
            "-" if t is None else f"{t['ms']['median']:.4f}/{t['ref']['median']:.4f}"
            for t in row["layers"].values()))
    print("refusals " + json.dumps(record["refusals"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
