"""Seeded operation lists for the two benchmark workloads.

Every operation is one in-process ``contextuality.cli.main(argv)`` call.
Documents are built here with numpy and exact fractions only, never with
the package under test, so the program sees nothing but generated JSON
files and argv.  Each operation carries an independent oracle (see
``oracles.py``) that judges the program's printed output.

The seed changes the documents' random parameters and the order of the
operations; it does not change how many operations of each kind a pass
holds, so the cost of a pass stays nearly the same from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles

# Operations of each kind in one cli-mix pass: 102 in all, so the per-operation
# medians leave 10 samples above their 90th percentile.
CLI_MIX_COUNTS = {
    "box-exact": 31,
    "box-float": 31,
    "quantum": 14,
    "gpt": 8,
    "prep": 10,
    "named": 6,
    "pusey": 2,
}

# Restarts for the heuristic embedding search on GPTs without sharp
# contexts.  Its cost grows with the restarts it needs, which differ from
# document to document; few restarts keep a pass's cost nearly the same
# from seed to seed.
SEARCH_RESTARTS = "2"
QSL_SHOTS = 2000

LADDER_RUNGS = (
    ("box2-local", "box", 2, Fraction(1, 3)),
    ("box2-nonlocal", "box", 2, Fraction(2, 3)),
    ("box3-local", "box", 3, Fraction(1, 3)),
    ("box3-nonlocal", "box", 3, Fraction(2, 3)),
    ("cycle5-noisy", "cycle", 5, Fraction(9, 10)),
    ("cycle6-noisy", "cycle", 6, Fraction(9, 10)),
    ("cycle7-noisy", "cycle", 7, Fraction(9, 10)),
    ("cycle8-noisy", "cycle", 8, Fraction(9, 10)),
    ("cycle9-noisy", "cycle", 9, Fraction(9, 10)),
    ("cycle10-sharp", "cycle", 10, Fraction(1)),
    ("cycle11-sharp", "cycle", 11, Fraction(1)),
    ("cycle12-sharp", "cycle", 12, Fraction(1)),
)
LADDER_IDS = tuple(r[0] for r in LADDER_RUNGS)

# Verdicts closer than this to an oracle's threshold are regenerated, so
# that rounding float inputs can never flip the expected answer.
MARGIN = Fraction(1, 20)


@dataclass
class Op:
    """One CLI call: argv (``{doc}`` stands for the written document path),
    the document to write, and the oracle judging the parsed output."""

    name: str
    kind: str
    argv: list
    check: Callable[[dict], list]
    doc: dict | None = None
    meta: dict = field(default_factory=dict)


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# Empirical documents


def _empirical_doc(labels_a, labels_b, tables, as_float: bool) -> dict:
    """Two-party (or cycle) empirical document from exact tables.

    ``tables`` maps (label, label) context pairs to {(a, b): Fraction}.
    """
    measurements = [{"label": m, "outcomes": [0, 1]}
                    for m in list(labels_a) + list(labels_b)]
    contexts = [list(ctx) for ctx in tables]
    out_tables = {}
    for ctx, table in tables.items():
        out_tables[",".join(ctx)] = {
            f"{a},{b}": (float(v) if as_float else _frac_str(v))
            for (a, b), v in table.items()}
    return {"kind": "empirical",
            "model": {"measurements": measurements, "contexts": contexts,
                      "tables": out_tables}}


def _pr_entry(a, b, x, y, variant) -> Fraction:
    alpha, beta, gamma = variant
    return Fraction(1, 2) if (a ^ b) == ((x & y) ^ (alpha & x) ^ (beta & y) ^ gamma) \
        else Fraction(0)


def _chsh_box(rng: np.random.Generator, local: bool):
    """Mixture of deterministic strategies plus a Popescu-Rohrlich box component.

    Returns exact tables p[(a, b, x, y)] whose CHSH maximum lies on the
    requested side of 2, at least ``MARGIN`` away from it.
    """
    while True:
        k = int(rng.integers(1, 5))
        strategies = [tuple(int(v) for v in rng.integers(0, 2, size=4))
                      for _ in range(k)]
        raw = [int(v) for v in rng.integers(1, 6, size=k)]
        weights = [Fraction(w, sum(raw)) for w in raw]
        w_pr = Fraction(int(rng.integers(1, 12)), 12)
        variant = tuple(int(v) for v in rng.integers(0, 2, size=3))
        p = {}
        for x in range(2):
            for y in range(2):
                for a in range(2):
                    for b in range(2):
                        ld = sum((w for w, (a0, a1, b0, b1) in zip(weights, strategies)
                                  if (a0, a1)[x] == a and (b0, b1)[y] == b),
                                 Fraction(0))
                        p[(a, b, x, y)] = ((1 - w_pr) * ld
                                           + w_pr * _pr_entry(a, b, x, y, variant))
        value = oracles.chsh_max(p)
        if local and value <= 2 - MARGIN:
            return p
        if not local and value >= 2 + MARGIN:
            return p


def _bipartite_tables(p, n_settings, labels_a, labels_b):
    return {(labels_a[x], labels_b[y]): {(a, b): p[(a, b, x, y)]
                                         for a in range(2) for b in range(2)}
            for x in range(n_settings) for y in range(n_settings)}


def _box_op(name, p, n_settings, labels, as_float: bool) -> Op:
    labels_a, labels_b = labels
    doc = _empirical_doc(labels_a, labels_b,
                         _bipartite_tables(p, n_settings, labels_a, labels_b),
                         as_float)
    local = oracles.chsh_max({k: v for k, v in p.items()
                              if k[2] < 2 and k[3] < 2}) <= 2
    expected = "yes" if local else "no"

    def check(payload):
        return oracles.check_bipartite_report(payload, doc, p, as_float, expected)

    return Op(name=name, kind="box", doc=doc,
              argv=["classify", "{doc}", "--emit-certificate"], check=check)


def _cycle_tables(n, v, labels):
    """Anticorrelated n-cycle with visibility v and uniform marginals."""
    same = (1 - v) / 4
    diff = (1 + v) / 4
    return {(labels[i], labels[i + 1]) if i + 1 < n else (labels[0], labels[n - 1]):
            {(a, b): (same if a == b else diff) for a in range(2) for b in range(2)}
            for i in range(n)}


def _cycle_op(name, n, v, labels) -> Op:
    tables = _cycle_tables(n, v, labels)
    doc = _empirical_doc(labels, (), tables, False)
    correlators = [sum((1 if a == b else -1) * p for (a, b), p in t.items())
                   for t in tables.values()]
    expected = "no" if oracles.cycle_contextual(correlators) else "yes"

    def check(payload):
        return oracles.check_single_system_report(payload, expected,
                                                  doc["model"]["tables"])

    return Op(name=name, kind="cycle", doc=doc,
              argv=["classify", "{doc}", "--emit-certificate"], check=check)


# ---------------------------------------------------------------------------
# Quantum documents


def _matrix_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "re": [float(v) for v in m.real.ravel()],
            "im": [float(v) for v in m.imag.ravel()]}


def _pentagon_rays() -> list:
    c = np.cos(np.pi / 5)
    cos_t = np.sqrt(c / (1 + c))
    sin_t = np.sqrt(1 - c / (1 + c))
    return [np.array([cos_t, sin_t * np.cos(4 * np.pi * j / 5),
                      sin_t * np.sin(4 * np.pi * j / 5)], dtype=complex)
            for j in range(5)]


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _pentagon_state(rng: np.random.Generator, kcbs: bool):
    """KCBS state |0>, or a random contextual qutrit state near it.

    Random states are drawn around |0> and kept only when the cycle oracle
    calls them contextual by at least ``MARGIN``; README.md explains why
    noncontextual pentagon states are left out.
    """
    rays = _pentagon_rays()
    projs = [np.outer(r, r.conj()) for r in rays]
    eye = np.eye(3)
    while True:
        if kcbs:
            rho = np.zeros((3, 3), dtype=complex)
            rho[0, 0] = 1
        else:
            psi = np.array([1, 0, 0], dtype=complex) + 0.3 * (
                rng.normal(size=3) + 1j * rng.normal(size=3))
            psi /= np.linalg.norm(psi)
            eps = rng.uniform(0, 0.2)
            rho = (1 - eps) * np.outer(psi, psi.conj()) + eps * _random_density(rng, 3)
        corr = [Fraction(float(np.trace(rho @ (2 * projs[j] - eye)
                                        @ (2 * projs[(j + 1) % 5] - eye)).real))
                for j in range(5)]
        margin = oracles.cycle_margin(corr)
        if kcbs or margin >= MARGIN:
            return rho, projs, margin > 0


def _pentagon_quantum_op(rng, kcbs: bool) -> Op:
    rho, projs, contextual = _pentagon_state(rng, kcbs)
    eye = np.eye(3)
    contexts = []
    for j in range(5):
        k = (j + 1) % 5
        contexts.append([
            {"label": f"A{j}", "projectors": [_matrix_json(projs[j]),
                                              _matrix_json(eye - projs[j])]},
            {"label": f"A{k}", "projectors": [_matrix_json(projs[k]),
                                              _matrix_json(eye - projs[k])]}])
    doc = {"kind": "quantum", "state": _matrix_json(rho), "contexts": contexts}
    expected = "no" if contextual else "yes"

    def check(payload):
        return oracles.check_single_system_report(payload, expected)

    return Op(name="quantum-pentagon-" + ("kcbs" if kcbs else "random"),
              kind="quantum", doc=doc, check=check,
              argv=["classify", "{doc}", "--emit-certificate"])


def _coarse_graining_op(rng) -> Op:
    """Two-outcome coarse-grainings of one random 4-dimensional eigenbasis.

    All measurements are functions of one projective measurement, so a
    joint distribution always exists.  Only the first context refines the
    whole basis; see README.md for the family that makes every context do
    so, which the classifier rejects as an input error.
    """
    u = _random_unitary(rng, 4)
    basis = [np.outer(u[:, i], u[:, i].conj()) for i in range(4)]
    eye = np.eye(4)
    blocks = [(0, 1), (0, 2), (0,)]
    meas = []
    for idx, block in enumerate(blocks):
        q = sum(basis[i] for i in block)
        meas.append({"label": f"M{idx}",
                     "projectors": [_matrix_json(q), _matrix_json(eye - q)]})
    contexts = [[meas[0], meas[1]], [meas[1], meas[2]], [meas[0], meas[2]]]
    doc = {"kind": "quantum", "state": _matrix_json(_random_density(rng, 4)),
           "contexts": contexts}

    def check(payload):
        return oracles.check_single_system_report(payload, "yes")

    return Op(name="quantum-coarse-graining", kind="quantum", doc=doc,
              check=check, argv=["classify", "{doc}", "--emit-certificate"])


# ---------------------------------------------------------------------------
# GPT documents


def _hermitian_vector(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [float(v) for v in np.concatenate([m.real.ravel(), m.imag.ravel()])]


def _pentagon_gpt_op(rng, kcbs: bool) -> Op:
    """Sharp GPT of the pentagon: atoms P_j and 1 - P_j - P_{j+1}."""
    rho, projs, contextual = _pentagon_state(rng, kcbs)
    eye = np.eye(3)
    atoms = list(projs) + [eye - projs[j] - projs[(j + 1) % 5] for j in range(5)]
    sharp = [[j, (j + 1) % 5, 5 + j] for j in range(5)]
    doc = {"kind": "gpt",
           "gpt": {"dim": 18, "states": [_hermitian_vector(rho)],
                   "effects": [_hermitian_vector(a) for a in atoms],
                   "unit": _hermitian_vector(eye),
                   "sharp_contexts": sharp}}
    expected = "no" if contextual else "yes"

    def check(payload):
        return oracles.check_gpt_report(payload, doc, expected)

    return Op(name="gpt-sharp-pentagon-" + ("kcbs" if kcbs else "random"),
              kind="gpt", doc=doc, check=check,
              argv=["classify", "{doc}", "--emit-certificate"])


def _classical_gpt_op(rng) -> Op:
    """Classical 3-outcome theory seen through a random linear frame.

    States are points of a triangle and effects its facet indicators, so a
    simplex embedding exists; the frame hides it from the identity check.
    The document declares no sharp contexts.
    """
    while True:
        t = rng.normal(size=(3, 3))
        if abs(np.linalg.det(t)) > 0.5:
            break
    t_inv_t = np.linalg.inv(t).T
    states = []
    for _ in range(4):
        w = rng.dirichlet(np.ones(3))
        states.append([float(v) for v in t @ w])
    effects = [[float(v) for v in t_inv_t @ e] for e in np.eye(3)]
    unit = [float(v) for v in t_inv_t @ np.ones(3)]
    doc = {"kind": "gpt", "gpt": {"dim": 3, "states": states,
                                  "effects": effects, "unit": unit}}

    def check(payload):
        return oracles.check_gpt_report(payload, doc, None)

    return Op(name="gpt-unsharp-classical", kind="gpt", doc=doc, check=check,
              argv=["classify", "{doc}", "--emit-certificate",
                    "--restarts", SEARCH_RESTARTS])


# ---------------------------------------------------------------------------
# Preparation ensembles and named subcommands


def _random_r(rng) -> Fraction:
    den = int(rng.integers(2, 13))
    return Fraction(int(rng.integers(1, den)), den)


def _prep_op(rng, emit: bool) -> Op:
    axis = rng.normal(size=3)
    axis = axis / np.linalg.norm(axis)
    doc = {"kind": "prep-ensemble", "r": _frac_str(_random_r(rng)),
           "axis": [float(v) for v in axis]}

    def check(payload):
        return oracles.check_prep_report(payload)

    argv = ["classify", "{doc}"] + (["--emit-certificate"] if emit else [])
    return Op(name="prep-ensemble" + ("-cert" if emit else ""), kind="prep",
              doc=doc, argv=argv, check=check)


def _pusey_op(rng, differ: bool) -> Op:
    """Two preparations over X, Y, Z, declared equivalent as mixtures.

    Their assignment polytopes intersect, and the equivalence LP is
    feasible, exactly when the two preparations have the same statistics;
    so the verdict is "contextual" iff ``differ``.
    """
    def dist():
        den = int(rng.integers(2, 13))
        p0 = Fraction(int(rng.integers(0, den + 1)), den)
        return [_frac_str(p0), _frac_str(1 - p0)]

    first = {m: dist() for m in ("X", "Y", "Z")}
    second = dict(first)
    if differ:
        m = ("X", "Y", "Z")[int(rng.integers(0, 3))]
        while second[m] == first[m]:
            second[m] = dist()
    a, b = (f"P{int(rng.integers(0, 1000))}_{i}" for i in range(2))
    doc = {"preps": {a: first, b: second},
           "equivalences": [[{a: "1/2", b: "1/2"}, {b: "1"}]]}
    return Op(name="pusey-" + ("distinct" if differ else "equal"), kind="pusey",
              doc=doc, argv=["pusey", "{doc}", "--emit-certificate"],
              check=lambda payload: oracles.check_pusey(payload, differ))


def _named_ops(rng, seed: int) -> list:
    alpha = float(rng.choice([0.3, 0.5, 0.6, 0.8, 0.9, 1.0]))
    r = _frac_str(_random_r(rng))
    return [
        Op("kcbs", "named", ["kcbs", "--emit-certificate"], oracles.check_kcbs),
        Op("chsh", "named", ["chsh", "--alpha", repr(alpha), "--emit-certificate"],
           lambda payload: oracles.check_chsh(payload, alpha)),
        Op("prep-nc", "named", ["prep-nc", "--r", r], oracles.check_prep_nc),
        Op("convert-bell", "named", ["convert-bell"], oracles.check_convert_bell),
        Op("qsl-run", "named", ["qsl", "run", "--prep", "Z:0", "--gates", "X,X",
                                "--measure", "Y", "--shots", str(QSL_SHOTS),
                                "--seed", str(seed)],
           lambda payload: oracles.check_qsl(payload, QSL_SHOTS),
           meta={"shots": QSL_SHOTS}),
        Op("pm-square", "named", ["pm-square", "--trials", "1", "--seed",
                                  str(seed), "--emit-certificate"],
           oracles.check_pm_square),
    ]


# ---------------------------------------------------------------------------
# Workload assembly


def _labels(rng, n: int, prefix_choices=("A", "B")) -> tuple:
    tag = int(rng.integers(0, 1000))
    return tuple(tuple(f"{p}{tag}_{i}" for i in range(n)) for p in prefix_choices)


def cli_mix(seed: int, scale: float = 1.0) -> list:
    rng = np.random.default_rng([seed, 1])
    counts = {k: max(1, round(v * scale)) for k, v in CLI_MIX_COUNTS.items()}
    ops = []
    for kind in ("box-exact", "box-float"):
        as_float = kind == "box-float"
        for i in range(counts[kind]):
            local = i % 2 == 0
            p = _chsh_box(rng, local)
            ops.append(_box_op(f"{kind}-{'local' if local else 'nonlocal'}",
                               p, 2, _labels(rng, 2), as_float))
    # Twelve of the fourteen quantum documents are coarse-grainings, which
    # cost about 260 ms each: with the four sharp GPTs and pm-square they
    # make the slowest 17% of a pass, so the 90th percentile falls inside one
    # cluster of similar operations rather than on the edge between two.
    for i in range(counts["quantum"]):
        if i < counts["quantum"] - 2:
            ops.append(_coarse_graining_op(rng))
        else:
            ops.append(_pentagon_quantum_op(rng, kcbs=i % 2 == 0))
    for i in range(counts["gpt"]):
        if i % 2 == 0:
            ops.append(_pentagon_gpt_op(rng, kcbs=i % 4 == 0))
        else:
            ops.append(_classical_gpt_op(rng))
    for i in range(counts["prep"]):
        ops.append(_prep_op(rng, emit=i % 2 == 0))
    ops.extend(_named_ops(rng, seed)[:counts["named"]])
    for i in range(counts["pusey"]):
        ops.append(_pusey_op(rng, differ=i % 2 == 0))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def ladder(seed: int, scale: float = 1.0) -> list:
    """Scaling rungs; the seed relabels measurements and orders the rungs."""
    rng = np.random.default_rng([seed, 2])
    rungs = LADDER_RUNGS if scale >= 1 else LADDER_RUNGS[:1] + LADDER_RUNGS[4:5]
    ops = []
    for rung_id, family, n, knob in rungs:
        if family == "box":
            p = {}
            for x in range(n):
                for y in range(n):
                    for a in range(2):
                        for b in range(2):
                            if x < 2 and y < 2:
                                p[(a, b, x, y)] = (knob * _pr_entry(a, b, x, y, (0, 0, 0))
                                                   + (1 - knob) / 4)
                            else:
                                p[(a, b, x, y)] = Fraction(1, 4)
            op = _box_op(rung_id, p, n, _labels(rng, n), as_float=False)
        else:
            op = _cycle_op(rung_id, n, knob, _labels(rng, n, ("X",))[0])
        op.meta["rung"] = rung_id
        ops.append(op)
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def warmup_ops(seed: int) -> list:
    """One cheap operation of each cli-mix kind; pays lazy imports."""
    rng = np.random.default_rng([seed, 3])
    ops = [_box_op("warmup-box", _chsh_box(rng, False), 2, _labels(rng, 2), True),
           _pentagon_quantum_op(rng, kcbs=False), _coarse_graining_op(rng),
           _classical_gpt_op(rng), _prep_op(rng, True), _pusey_op(rng, True)]
    return ops + [op for op in _named_ops(rng, seed) if op.name != "pm-square"]


GENERATORS = {"cli-mix": cli_mix, "ladder": ladder}
