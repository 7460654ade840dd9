"""Seeded inputs for the library workloads.

Every workload is a fixed menu of structure templates (dimension, Jordan
blocks, basis condition number).  The seed draws only the eigenvalues, the
similarity basis, the states and the times, so the share of each structure in
a run does not depend on the seed.  The program under test sees only the
matrices, vectors and times; the synthesized structure is kept for the
oracles.

Each workload has two menus.  The timed menu holds structures the program
handles on every seed tried, so no timed op fails.  The defect menu holds the
known defects (structures the program refuses or answers outside its
thresholds); it is run once per run, outside the timing, and its outcomes are
reported, so a fix or a regression of a defect shows without moving the
timed figures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from pseudoherm import evolution, linalg, spectral
from pseudoherm.spectral import JordanBlockSpec, SynthesisSpec

WORKLOADS = ("small-mixed", "large-defective", "long-evolution", "cli")


@dataclass(frozen=True)
class Case:
    """One Hamiltonian and what the op does with it."""

    label: str                # menu slot, for failure messages
    h: np.ndarray
    groups: tuple             # expected (eigenvalue, kind, block_dims), analyze's view
    psi0: np.ndarray          # initial state, unit Euclidean norm
    final: np.ndarray         # final state for transition probabilities
    t_prop: float             # time of the propagator classified against P
    grid: tuple               # evolution grid

    @property
    def n(self) -> int:
        return self.h.shape[0]


def _unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def t_bound(h) -> float:
    """Largest t with ``||-iHt||_F`` inside ``linalg.EXPM_NORM_BOUND``."""
    return linalg.EXPM_NORM_BOUND / float(np.linalg.norm(h))


def _eigenvalues(rng, n_real, n_pair, imag):
    """Distinct real eigenvalues and upper pair members, at least 0.6 apart."""
    m = n_real + n_pair
    pos = np.arange(m) - 0.5 * (m - 1) + rng.uniform(-0.2, 0.2, m)
    rng.shuffle(pos)
    pairs = pos[n_real:] + 1j * rng.uniform(*imag, n_pair)
    return list(pos[:n_real]), list(pairs)


def synthesize(rng, n, blocks, cond, *, fill="real", imag=(0.3, 1.0)):
    """``(H, decomposition)`` for a template.

    ``blocks`` lists ``(kind, dims)`` with kind "real", "pair" (a conjugate
    pair with ``dims`` on each member) or "unpaired" (a complex eigenvalue
    with no partner).  The rest of the dimension is filled with simple real
    eigenvalues (``fill="real"``), identical pairs of them (``"real2"``) or
    simple conjugate pairs (``"pair"``).
    """
    used = sum(sum(d) * (2 if k == "pair" else 1) for k, d in blocks)
    kind, dims, step = {"real": ("real", (1,), 1), "real2": ("real", (1, 1), 2),
                        "pair": ("pair", (1,), 2)}[fill]
    if (n - used) % step:
        raise ValueError(f"cannot fill {n - used} dimensions with {fill}")
    blocks = list(blocks) + [(kind, dims)] * ((n - used) // step)
    n_real = sum(k == "real" for k, _ in blocks)
    n_complex = len(blocks) - n_real
    reals, complexes = _eigenvalues(rng, n_real, n_complex, imag)
    specs = []
    for kind, dims in blocks:
        if kind == "real":
            specs.append(JordanBlockSpec(reals.pop(), dims))
        else:
            z = complexes.pop()
            specs.append(JordanBlockSpec(z, dims))
            if kind == "pair":
                specs.append(JordanBlockSpec(np.conj(z), dims))
    spec = SynthesisSpec(groups=tuple(specs), basis_seed=int(rng.integers(2 ** 62)),
                         basis_cond=float(cond))
    return spectral.synthesize(spec, allow_unpaired=True)


def synth_case(rng, label, n, blocks, cond, *, fill="real", imag=(0.3, 1.0),
               grid_points=1, window=0.8, t_max=2.0) -> Case:
    """A case from ``synthesize``.  The evolution grid has ``grid_points``
    uniform points on ``[0, window * t_bound]`` (capped at ``t_max``, unless
    ``window > 1`` puts its end past the expm bound); one point means a
    single time below half the bound."""
    h, dec = synthesize(rng, n, blocks, cond, fill=fill, imag=imag)
    return finish(rng, label, h, dec, grid_points, window, t_max)


def finish(rng, label, h, dec, grid_points=1, window=0.8, t_max=2.0) -> Case:
    """Draw the states and times of a case for ``(h, dec)``."""
    tb = t_bound(h)
    end = window * tb if window > 1 else min(window * tb, t_max)
    grid = tuple(float(t) for t in np.linspace(0.0, end, grid_points)) \
        if grid_points > 1 else (float(min(rng.uniform(0.2, 1.0), 0.5 * tb)),)
    groups = tuple((g.eigenvalue, g.kind, tuple(sorted(g.block_dims, reverse=True)))
                   for g in dec.groups)
    return Case(label=label, h=h, groups=groups, psi0=_unit(rng, dec.n),
                final=_unit(rng, dec.n),
                t_prop=float(min(rng.uniform(0.2, 1.0), 0.5 * tb)), grid=grid)


def _model_case(rng, regime, grid_points) -> Case:
    e = rng.uniform(-1.0, 1.0)
    r, s = rng.uniform(0.5, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
    s = {"real": np.sign(r) * abs(s), "complex": -np.sign(r) * abs(s),
         "jordan": 0.0, "scalar": 0.0}[regime]
    r = 0.0 if regime == "scalar" else r
    h, _, dec = evolution.mashhoon_papini(evolution.MashhoonPapiniParams(e, r, s))
    return finish(rng, f"mashhoon-{regime}", h, dec, grid_points, 0.8, 2.0)


def _small_mixed(rng):
    """n in {2, 4, 8}: every two-level regime, real / paired / <=3-block
    synthesized structures and an unpaired complex eigenvalue."""
    g = 20
    cases = [_model_case(rng, regime, g)
             for regime in ("real", "complex", "jordan", "scalar")]
    menu = [
        ("real4", 4, [], 10, "real"),
        ("pairs4", 4, [], 10, "pair"),
        ("jordan4", 4, [("real", (2,)), ("real", (1, 1))], 10, "real"),
        ("jordan8", 8, [("real", (3,)), ("real", (2,)), ("pair", (1,))], 10, "real"),
        ("paired8", 8, [("real", (2, 2)), ("pair", (1,))], 10, "pair"),
        ("mixed8", 8, [("real", (3,)), ("pair", (2,))], 100, "real"),
        ("unpaired2", 2, [("unpaired", (1,))], 10, "real"),
    ]
    for label, n, blocks, cond, fill in menu:
        cases.append(synth_case(rng, label, n, blocks, cond, fill=fill, grid_points=g))
    return cases


def _small_mixed_defects(rng):
    """A resolvable near pair, diag(x, x + 1e-4) by a unitary: refused with
    ``ClusterAmbiguity``."""
    return [near_pair_case(rng, 20)]


def near_pair(rng):
    """``(H, decomposition)`` of diag(x, x + 1e-4) in a random unitary basis."""
    x = float(rng.uniform(-1.0, 1.0))
    spec = SynthesisSpec(groups=(JordanBlockSpec(x, (1,)), JordanBlockSpec(x + 1e-4, (1,))),
                         basis_seed=int(rng.integers(2 ** 62)), basis_cond=1.0)
    return spectral.synthesize(spec)


def near_pair_case(rng, grid_points) -> Case:
    h, dec = near_pair(rng)
    return finish(rng, "near-pair", h, dec, grid_points)


def _large_defective(rng):
    """n in {32, 48, 64}: Jordan blocks of size 1-5, paired and unpaired real
    blocks, conjugate pairs, basis condition 10 to 100; three slots at each
    n, so the median op sits among the n=48 ones."""
    menu = [
        ("n32-4block", 32, [("real", (4,)), ("real", (2, 2)), ("pair", (1,))], 10, "real"),
        ("n32-5block", 32, [("real", (5,)), ("pair", (2,))], 10, "real"),
        ("n32-paired", 32, [("real", (3, 3)), ("real", (2, 2)), ("pair", (2,))], 100, "real2"),
        ("n48-4block", 48, [("real", (4,)), ("pair", (3,))], 10, "real"),
        ("n48-diag", 48, [], 100, "real2"),
        ("n48-paired", 48, [("real", (3, 3)), ("pair", (1,))], 100, "real2"),
        ("n64-4block", 64, [("real", (4,)), ("real", (3, 3)), ("pair", (2,))], 10, "real"),
        ("n64-paired", 64, [("real", (2, 2)), ("pair", (2,))], 30, "real2"),
        ("n64-3block", 64, [("real", (3,)), ("pair", (2,))], 30, "real"),
    ]
    return [synth_case(rng, label, n, blocks, cond, fill=fill)
            for label, n, blocks, cond, fill in menu]


def _large_defective_defects(rng):
    """The 6-blocks and the 5-block at n=64 with condition 100, which the
    parent refuses (``ClusterAmbiguity``, ``NotPseudoHermitian``) or answers
    outside its thresholds, and the n=32 paired blocks at condition 1e3,
    whose criterion-8 drift exceeds 1e-8 on about one seed in sixty."""
    menu = [
        ("n32-paired-c1000", 32, [("real", (3, 3)), ("real", (2, 2)), ("pair", (2,))], 1000,
         "real2"),
        ("n32-6block", 32, [("real", (6,))], 100, "real"),
        ("n48-6block", 48, [("real", (6,)), ("pair", (1,))], 100, "real"),
        ("n64-5block", 64, [("real", (5,)), ("pair", (1,))], 100, "real"),
        ("n64-6block", 64, [("real", (6,)), ("real", (3,))], 1000, "real"),
    ]
    return [synth_case(rng, label, n, blocks, cond, fill=fill)
            for label, n, blocks, cond, fill in menu]


def _long_evolution(rng):
    """n in {16, 32, 64}: diagonalizable real spectra (P+ exists) and
    conjugate-pair spectra (indefinite P only) on 200-point grids.  Real
    windows run to 0.8 of the expm norm bound; pair windows stop at t=4 so
    the growth exp(Im(E) t) stays below e^4.  A real op evaluates two series
    and a pair op one, so the ten slots sort as n16 pair x2, n16 real,
    n32 pair, n32 real x3, n64 pair x2, n64 real and the median op is an
    n=32 real one."""
    return _evolution_cases(rng, [
        (16, "pair", 10), (16, "pair", 30), (16, "real", 10),
        (32, "pair", 100), (32, "real", 10), (32, "real", 100), (32, "real", 30),
        (64, "pair", 10), (64, "pair", 100), (64, "real", 100)])


def _long_evolution_defects(rng):
    """Real windows that end past the expm norm bound, refused with
    ``Overflow`` (at n=64 with condition 100 the bound is reached by t~0.4),
    and an n=16 pair spectrum at condition 100, whose criterion-8 drift
    exceeds 1e-8 on a few seeds in a hundred."""
    return _evolution_cases(rng, [(16, "real", 100, "over"), (64, "real", 10, "over"),
                                  (16, "pair", 100)])


def _evolution_cases(rng, menu):
    cases = []
    for n, fill, cond, *over in menu:
        cases.append(synth_case(
            rng, f"n{n}-{fill}-c{cond}{'-over' if over else ''}", n, [], cond,
            fill=fill, imag=(0.3, 1.0), grid_points=200, window=1.6 if over else 0.8,
            t_max=np.inf if fill == "real" else 4.0))
    return cases


_BUILDERS = {"small-mixed": (_small_mixed, _small_mixed_defects),
             "large-defective": (_large_defective, _large_defective_defects),
             "long-evolution": (_long_evolution, _long_evolution_defects)}

#: timed-menu draws per pool: more draws average more seeds' worth of inputs
#: into one run, fewer let a run make more passes over its pool
REPLICAS = {"small-mixed": 8, "large-defective": 1, "long-evolution": 1}


def generate(workload: str, seed: int) -> tuple[list[Case], list[Case]]:
    """``(timed pool, defect probes)`` for a seed; each from its own stream."""
    timed, defects = _BUILDERS[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    pool = [case for _ in range(REPLICAS[workload]) for case in timed(rng)]
    return pool, defects(np.random.default_rng([seed, WORKLOADS.index(workload), 1]))


def digest(cases) -> str:
    """SHA-256 of every array and number the program receives."""
    sha = hashlib.sha256()
    for c in cases:
        for a in (c.h, c.psi0, c.final, np.array([c.t_prop, *c.grid])):
            sha.update(np.ascontiguousarray(a).tobytes())
    return sha.hexdigest()
