"""Measurement scenarios, empirical models, no-disturbance checks, and exact rationalization.

Probability entries are exact `Fraction`s when supplied as rationals and
doubles otherwise; NaN and infinite entries are rejected.  Exact
consistency is decided once per model, in `make_model`, which reads an
exact document's tables into integers over one common denominator as it
fills them (`EmpiricalModel.integer_tables`) and checks their signs, sums
and overlap marginals there (`EmpiricalModel.exactly_consistent`).  A
marginal is read by outcome position: each table lists its context's
joint outcomes in `outcome_tuples` order.  `rationalize_model`, called
only by the global-section solver (`sheaf.solve_global_section`), returns
such a model unchanged and otherwise a nearby model that is exactly
normalised and marginal-consistent, rounding every float on integers
(`exactlp.nearest_fraction`).  `rationalize_atoms` does the same for the
atom probabilities of sharp contexts.  A quantum document is read once by
`quantum_pass`, and its exact atoms (`QuantumPass.exact_atoms`) build the
models of both verdicts.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import getitem, itemgetter, sub

import numpy as np

from .exactlp import (
    SparseColumns,
    clear_denominators,
    nearest_fraction,
    require_certificate,
    solve_eq_nonneg,
)
from .quantum import DimensionMismatch, ProjectiveContext, sup_norm, validate_density
from .record import Record

ND_TOL = 1e-9
SHARING_TOL = 1e-10


class SchemaError(ValueError):
    """Malformed JSON input."""


class LabelMismatch(ValueError):
    pass


class DegenerateContexts(ValueError):
    pass


class DisturbingModel(ValueError):
    pass


class NonCommutingContext(ValueError):
    pass


class InconsistentSharing(ValueError):
    pass


# ---------------------------------------------------------------------------
# Scenario and model containers
# ---------------------------------------------------------------------------

class MeasurementScenario(Record):
    """Measurements with finite outcome sets plus a cover of compatible contexts.

    Contexts are stored in canonical form: measurement labels ordered by their
    position in `measurements`.  Treat instances as immutable.
    """

    measurements: tuple
    outcomes: dict
    contexts: tuple

    @cached_property
    def _joint_outcomes(self) -> dict:
        """`outcome_tuples`' results by context, filled as contexts are asked for."""
        return {}

    @cached_property
    def _order(self) -> dict:
        return {m: i for i, m in enumerate(self.measurements)}

    @cached_property
    def overlaps(self) -> tuple:
        """(ca, cb, overlap) for every pair of contexts that share a measurement.

        Pairs come in `itertools.combinations` order; the overlap lists the
        shared labels in canonical order.
        """
        members = {c: set(c) for c in self.contexts}
        out = []
        for ca, cb in itertools.combinations(self.contexts, 2):
            shared = members[ca] & members[cb]
            if shared:
                out.append((ca, cb, tuple(m for m in self.measurements if m in shared)))
        return tuple(out)

    def outcome_tuples(self, context) -> tuple:
        """Joint outcomes of a context, lexicographic in canonical label order.

        Formed once per context of this scenario.
        """
        context = tuple(context)
        joint = self._joint_outcomes.get(context)
        if joint is None:
            joint = self._joint_outcomes[context] = tuple(
                itertools.product(*(self.outcomes[m] for m in context)))
        return joint

    def canonical_positions(self, labels) -> list:
        order = self._order
        for lab in labels:
            if lab not in order:
                raise LabelMismatch(f"unknown measurement {lab!r}")
        return sorted(range(len(labels)), key=[order[lab] for lab in labels].__getitem__)

    def canonical_context(self, labels) -> tuple:
        labels = tuple(labels)
        return tuple(map(labels.__getitem__, self.canonical_positions(labels)))


def make_scenario(measurements, contexts) -> MeasurementScenario:
    """Validated scenario constructor.

    `measurements` is an ordered mapping/sequence of (label, outcomes);
    `contexts` a nonempty list of nonempty label collections.  Every
    measurement must be covered, every outcome set must have at least two
    elements, and no two contexts may be equal as sets.  Table keys and
    certificate rows join labels and outcomes, by `str`, with ``,`` and
    ``|``: none may hold either, and no two outcomes may read alike.
    """
    if isinstance(measurements, dict):
        items = list(measurements.items())
    else:
        items = [(lab, outs) for lab, outs in measurements]
    labels = tuple(lab for lab, _ in items)
    if len(set(labels)) != len(labels):
        raise LabelMismatch("duplicate measurement labels")
    outcomes = {}
    for lab, outs in items:
        outs = tuple(outs)
        if "," in str(lab) or "|" in str(lab):
            raise LabelMismatch(f"measurement label {lab!r} holds ',' or '|'")
        if outs not in outcomes.values():  # each outcome list is checked once
            if len(outs) < 2:
                raise ValueError(f"measurement {lab!r} needs >= 2 outcomes, got {len(outs)}")
            if len(set(outs)) != len(outs):
                raise ValueError(f"measurement {lab!r} has duplicate outcomes")
            written = {str(o) for o in outs}
            if len(written) != len(outs) or any("," in w or "|" in w for w in written):
                raise ValueError(f"outcomes {list(outs)!r} of measurement {lab!r} hold ',' "
                                 "or '|', or two are written alike")
        outcomes[lab] = outs
    order = {m: i for i, m in enumerate(labels)}
    canon = []
    for ctx in contexts:
        ctx = list(ctx)
        for lab in ctx:
            if lab not in order:
                raise LabelMismatch(f"context references unknown measurement {lab!r}")
        if len(set(ctx)) != len(ctx):
            raise LabelMismatch(f"context {ctx} repeats a measurement")
        if not ctx:
            raise DegenerateContexts("a context must hold at least one measurement")
        canon.append(tuple(sorted(ctx, key=order.__getitem__)))
    if not canon:
        raise DegenerateContexts("a scenario needs at least one context")
    if len({frozenset(c) for c in canon}) != len(canon):
        raise DegenerateContexts("two contexts contain the same measurement set")
    covered = set().union(*map(set, canon))
    missing = [m for m in labels if m not in covered]
    if missing:
        raise ValueError(f"measurements not covered by any context: {missing}")
    return MeasurementScenario(measurements=labels, outcomes=outcomes,
                               contexts=tuple(canon))


class EmpiricalModel(Record):
    """Per-context joint outcome distributions, each table in `outcome_tuples` order."""

    scenario: MeasurementScenario
    tables: dict

    @property
    def is_rational(self) -> bool:
        return all(isinstance(v, Fraction)
                   for t in self.tables.values() for v in t.values())

    @cached_property
    def integer_tables(self) -> tuple[dict, int]:
        """The tables as integers over one common denominator, and that denominator.

        Sums and marginals of the integer tables are the exact ones times the
        denominator.  Formed once per model, by `make_model` as it fills
        exact tables: the tables are not to be changed after.
        """
        ints, scale = clear_denominators([v for t in self.tables.values() for v in t.values()])
        it = iter(ints)
        return {c: dict(zip(t, it)) for c, t in self.tables.items()}, scale

    @cached_property
    def exactly_consistent(self) -> bool:
        """Rational, every table sums to exactly 1 and every overlap marginal agrees.

        Decided once per model, by `make_model` for the models it builds.
        """
        if not self.is_rational:
            return False
        tables, scale = self.integer_tables
        return (all(sum(t.values()) == scale for t in tables.values())
                and _marginals_agree(self.scenario, tables))

    def table(self, context) -> dict:
        return self.tables[self.scenario.canonical_context(context)]


def make_model(scenario: MeasurementScenario, tables: dict) -> EmpiricalModel:
    """Validated model constructor.

    Table keys may list a context's labels in any order; outcome tuples are
    permuted into canonical order.  Two keys for one context are refused.
    Missing joint outcomes are filled with zero.  If any entry is a float
    the whole model is stored as floats, otherwise everything is an exact
    `Fraction`, checked once as its tables are filled (`_filled_model`).
    NaN and infinite entries are rejected.
    """
    read = []
    for key, table in tables.items():
        labels = tuple(key) if not isinstance(key, str) else tuple(key.split(","))
        perm = scenario.canonical_positions(labels)
        canon = tuple(map(labels.__getitem__, perm))
        entries = {}
        for outc, val in table.items():
            outc = tuple(outc) if isinstance(outc, (tuple, list)) else (outc,)
            if len(outc) != len(canon):
                raise ValueError(f"outcome {outc} has wrong arity for context {canon}")
            entries[tuple(map(outc.__getitem__, perm))] = val
        read.append((key, labels, canon, entries))
    return _filled_model(scenario, read)


def _filled_model(scenario: MeasurementScenario, read: list) -> EmpiricalModel:
    """The model of tables read in canonical order, filled and checked as `make_model` says.

    ``read`` lists (key, labels, canonical context, entries by canonical
    outcome).  An exact model's integer tables are formed, and its signs,
    sums and marginals checked, here, once.
    """
    declared = set(scenario.contexts)
    staged: dict[tuple, tuple] = {}
    for key, labels, canon, entries in read:
        if canon not in declared:
            raise LabelMismatch(f"{labels} is not a declared context")
        if canon in staged:
            raise ValueError(f"tables {staged[canon][0]!r} and {key!r} are both context {canon}")
        staged[canon] = key, entries
    missing = [c for c in scenario.contexts if c not in staged]
    if missing:
        raise ValueError(f"no table supplied for contexts {missing}")

    has_float = any(isinstance(v, float) for _, t in staged.values() for v in t.values())
    zero = 0 if has_float else Fraction(0)
    tables_out: dict[tuple, dict] = {}
    for canon, (_, entries) in staged.items():
        full = tables_out[canon] = dict.fromkeys(scenario.outcome_tuples(canon), zero)
        if not entries.keys() <= full.keys():
            bad = next(outc for outc in entries if outc not in full)
            raise ValueError(f"outcome {bad} not valid for context {canon}")
        full.update(entries)
        if not has_float:
            for outc, v in entries.items():
                if not isinstance(v, Fraction):
                    full[outc] = Fraction(v)
            continue
        for outc, v in full.items():
            v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"probability {v} in context {canon} is not finite")
            if v < -1e-12:
                raise ValueError(f"negative probability {v} in context {canon}")
            full[outc] = max(0.0, v)
        # A float table may be off by as much as the no-disturbance check
        # forgives; `rationalize_model` makes it exactly normalised.
        if abs(sum(full.values()) - 1.0) > ND_TOL:
            raise ValueError(f"context {canon} table sums to {sum(full.values())}, not 1")
    model = EmpiricalModel(scenario=scenario, tables=tables_out)
    if has_float:
        return model
    # Over the model's one common denominator, an exact table's integers sum to it.
    scale = math.lcm(*{v.denominator for t in tables_out.values() for v in t.values()})
    ints = {}
    for canon, full in tables_out.items():
        table = ints[canon] = {outc: v.numerator * (scale // v.denominator)
                               for outc, v in full.items()}
        if min(table.values()) < 0:
            outc = next(outc for outc, n in table.items() if n < 0)
            raise ValueError(f"negative probability {full[outc]} in context {canon}")
        total = sum(table.values())
        if total != scale:
            raise ValueError(f"context {canon} table sums to {Fraction(total, scale)}, not 1")
    model.__dict__["integer_tables"] = ints, scale
    model.__dict__["exactly_consistent"] = _marginals_agree(scenario, ints)
    return model


# ---------------------------------------------------------------------------
# Marginals and no-disturbance
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _runs(shape: tuple, axes: tuple) -> tuple:
    """Per outcome on ``axes``, in C order, a getter of its entries in a table of ``shape``."""
    runs: dict = {}
    for p, cell in enumerate(itertools.product(*map(range, shape))):
        runs.setdefault(tuple(cell[a] for a in axes), []).append(p)
    # A one-entry run is read as a slice, so that every getter returns a tuple.
    return tuple(itemgetter(*run) if len(run) > 1 else itemgetter(slice(run[0], run[0] + 1))
                 for _, run in sorted(runs.items()))


def _marginal(sc: MeasurementScenario, table: dict, context: tuple, overlap: tuple) -> list:
    """``table``'s marginal on ``overlap``, by outcome position, in `outcome_tuples` order."""
    values = tuple(table.values())
    shape = tuple(map(len, map(sc.outcomes.__getitem__, context)))
    return [sum(run(values)) for run in _runs(shape, tuple(map(context.index, overlap)))]


class NoDisturbanceReport(Record):
    passed: bool
    worst_violation: float
    worst_pair: tuple | None

    def __str__(self) -> str:
        if self.passed:
            return f"no-disturbance: pass (worst violation {self.worst_violation:.3e})"
        a, b, overlap = self.worst_pair
        return (f"no-disturbance: FAIL (violation {self.worst_violation:.3e} "
                f"between {a} and {b} on {overlap})")


def _overlap_marginals(sc: MeasurementScenario, tables: dict):
    """The scenario's overlaps with the marginals of both contexts' `tables` on them.

    Each (context, overlap) marginal is computed once, by `_marginal`, and
    shared by every pair that needs it.
    """
    cache: dict[tuple, list] = {}
    for ca, cb, overlap in sc.overlaps:
        for c in (ca, cb):
            if (c, overlap) not in cache:
                cache[c, overlap] = _marginal(sc, tables[c], c, overlap)
        yield ca, cb, overlap, cache[ca, overlap], cache[cb, overlap]


def validate_no_disturbance(model: EmpiricalModel, tol: float = ND_TOL) -> NoDisturbanceReport:
    """Max l-infinity distance between context marginals on every overlap.

    Exact, on the integer tables, for an exact model; a float for the report.
    """
    exact = model.is_rational
    tables, scale = model.integer_tables if exact else (model.tables, 1)
    worst, worst_pair = 0, None
    for ca, cb, overlap, ma, mb in _overlap_marginals(model.scenario, tables):
        d = max(map(abs, map(sub, ma, mb)))
        if d > worst:
            worst, worst_pair = d, (ca, cb, overlap)
    worst = Fraction(worst, scale) if exact else worst
    return NoDisturbanceReport(passed=worst <= tol, worst_violation=float(worst),
                               worst_pair=worst_pair)


def _marginals_agree(sc: MeasurementScenario, tables: dict) -> bool:
    """Every overlap marginal of integer `tables` agrees exactly."""
    return all(ma == mb for _, _, _, ma, mb in _overlap_marginals(sc, tables))


# ---------------------------------------------------------------------------
# Quantum -> empirical conversion
# ---------------------------------------------------------------------------

class QuantumPass(Record, eq=False):
    """Products, atoms and Born probabilities of one quantum document, computed once.

    A product picks one projector per measurement of a context and
    multiplies them in the context's order.  ``keys`` lists every product,
    context by context in `itertools.product` order over the measurements'
    projectors, as (canonical context, canonical outcome tuple), and
    ``born[j, p]`` is Tr(state_j product_p), clamped at 0.  A product whose
    Hermitian part has sup norm at most `SHARING_TOL` is zero; any other
    takes the first atom within `SHARING_TOL` (sup norm) of its Hermitian
    part, which is a new atom when there is none.  ``atom_of`` maps
    products to atoms (None for a zero product), ``first`` maps atoms to
    the product that made them, and ``sharp_contexts`` lists each context's
    atoms in product order.
    """

    states: tuple
    scenario: MeasurementScenario
    keys: tuple
    born: np.ndarray
    atoms: np.ndarray
    atom_of: tuple
    first: tuple
    sharp_contexts: tuple

    def float_model(self) -> EmpiricalModel:
        """The first state's Born tables; `DisturbingModel` when marginals disagree beyond `ND_TOL`."""
        tables: dict = {c: {} for c in self.scenario.contexts}
        for (c, o), p in zip(self.keys, self.born[0].tolist()):
            tables[c][o] = p
        model = make_model(self.scenario, tables)
        report = validate_no_disturbance(model)
        if not report.passed:
            raise DisturbingModel(str(report))
        return model

    @cached_property
    def _exact(self) -> tuple[list, EmpiricalModel | None]:
        """`exact_atoms` and `exact_model`, made once."""
        floats = self.born[0, list(self.first)]
        exact = _exact_born(self.states[0], self.atoms, floats)
        model = None if exact is None else self._atom_model(exact)
        if model is None:
            exact = rationalize_atoms(floats.tolist(), list(
                dict.fromkeys(tuple(sorted(c)) for c in self.sharp_contexts)))
            model = self._atom_model(exact)
        return exact, model

    def exact_atoms(self) -> list[Fraction]:
        """The first state's atom probabilities, made exact once.

        Where every atom is a Gaussian-rational matrix (`_exact_born`),
        they are its exact Born values on the rounded state, kept when the
        model of the products (`exact_model`) is exactly consistent, as it
        is by linearity.  Otherwise they are the float probabilities made
        exact by `rationalize_atoms`, whose contexts are the distinct
        sorted atom sets of the sharp contexts, in document order, as in
        `embedding.induced_model`.
        """
        return self._exact[0]

    def exact_model(self) -> EmpiricalModel | None:
        """Tables of the products' `exact_atoms` values (0 for a zero product), or None.

        None unless the model is exactly consistent; rounded atoms need not
        make it so when a marginal sums different atoms, as in a
        Peres-Mermin square turned to an irrational basis.
        """
        return self._exact[1]

    def section_model(self) -> EmpiricalModel:
        """The model the assignment verdict reads: `exact_model`, else `float_model`.

        The float tables are built, and checked for no-disturbance, first.
        """
        floats = self.float_model()
        return self.exact_model() or floats

    def _atom_model(self, exact) -> EmpiricalModel | None:
        sc = self.scenario
        value = {key: Fraction(0) if k is None else exact[k]
                 for key, k in zip(self.keys, self.atom_of)}
        model = EmpiricalModel(scenario=sc, tables={
            c: {o: value[c, o] for o in sc.outcome_tuples(c)} for c in sc.contexts})
        return model if model.exactly_consistent else None


def quantum_pass(states, contexts, sharing: dict | None = None) -> QuantumPass:
    """Check a quantum document once and compute its products, atoms and Born tables.

    Each state is a density matrix, or a ket standing for its outer
    product, and must pass `validate_density` (square, Hermitian, trace 1,
    positive semidefinite) at every measurement's dimension.  `contexts` is
    a list of contexts, each a list of `ProjectiveContext` measurements.
    `sharing` maps measurement labels to scenario labels so the same
    observable appearing in several contexts is identified; it defaults to
    the identity on labels.  Repeated labels must carry identical outcome
    lists and projectors (sup norm within `SHARING_TOL`), and measurements
    within one context must commute projector by projector (within
    `SHARING_TOL`).  Each measurement object and each pair is checked
    once.  All products are formed together, one batched matrix product
    per measurement slot, and their Born probabilities in one contraction.
    """
    dms = [validate_density(np.outer(s, np.conj(s)) if np.ndim(s) == 1 or 1 in np.shape(s)
                            else s) for s in states]
    dim = dms[0].shape[0]
    if any(r.shape[0] != dim for r in dms):
        raise DimensionMismatch("the states differ in dimension")
    sharing = sharing or {}
    members = [[c] if isinstance(c, ProjectiveContext) else list(c) for c in contexts]
    # Slot 0 is the identity, which pads contexts with fewer measurements.
    seen, slot, mats, pairs, labels = {}, {}, [np.eye(dim)], {}, []
    for ctx in members:
        for pc in ctx:
            if id(pc) in slot:
                continue
            if pc.projectors[0].shape[0] != dim:
                raise DimensionMismatch(f"measurement {pc.label!r} acts on dimension "
                                        f"{pc.projectors[0].shape[0]}, the state on {dim}")
            slot[id(pc)] = len(mats)
            mats.extend(pc.projectors)
            lab = sharing.get(pc.label, pc.label)
            prev = seen.setdefault(lab, pc)
            if prev is pc:
                continue
            if prev.outcomes != pc.outcomes:
                raise InconsistentSharing(f"label {lab!r} re-used with different outcomes")
            diff = max(sup_norm(p - q) for p, q in zip(prev.projectors, pc.projectors))
            if diff > SHARING_TOL:
                raise InconsistentSharing(
                    f"label {lab!r} re-used with different projectors (diff {diff:.2e})")
        labels.append([sharing.get(pc.label, pc.label) for pc in ctx])
        for a, b in itertools.combinations(ctx, 2):
            for i, k in itertools.product(range(len(a.projectors)), range(len(b.projectors))):
                pairs.setdefault((slot[id(a)] + i, slot[id(b)] + k), (a.label, b.label))
    sc = make_scenario([(lab, pc.outcomes) for lab, pc in seen.items()], labels)
    mats = np.array(mats, dtype=complex)
    if pairs:
        left, right = (mats[list(ix)] for ix in zip(*pairs))
        bad = np.flatnonzero(np.abs(left @ right - right @ left).max(axis=(1, 2)) > SHARING_TOL)
        if bad.size:
            raise NonCommutingContext("measurements {!r} and {!r} do not commute".format(
                *list(pairs.values())[bad[0]]))

    width = max(map(len, members), default=1)
    picks, keys = [], []
    for ctx, row, canon in zip(members, labels, sc.contexts):
        perm = [row.index(m) for m in canon]
        for pick in itertools.product(*(range(len(pc.projectors)) for pc in ctx)):
            picks.append([slot[id(pc)] + k for pc, k in zip(ctx, pick)]
                         + [0] * (width - len(ctx)))
            keys.append((canon, tuple(ctx[t].outcomes[pick[t]] for t in perm)))
    picks = np.array(picks, dtype=int).reshape(-1, width)
    prods = mats[picks[:, 0]]
    for t in range(1, width):
        prods = prods @ mats[picks[:, t]]
    born = np.maximum(np.einsum("sij,pji->sp", np.array(dms), prods).real, 0.0)

    herm = (prods + prods.conj().transpose(0, 2, 1)) / 2
    live = np.flatnonzero(np.abs(herm).max(axis=(1, 2)) > SHARING_TOL).tolist()
    # Sup-norm distances among the live products only, in blocks of at most
    # 2**20 matrix entries.
    h, size = herm[live], len(live)
    step = max(1, 2**20 // (size * dim * dim + 1))
    near = [row for i in range(0, size, step) for row in (np.abs(
        h[i:i + step, None] - h[None]).max(axis=(2, 3)) <= SHARING_TOL).tolist()]
    # A live product joins the first atom whose first product is near it, or
    # starts an atom of its own.
    atom_of, first, leads = [None] * len(keys), [], []
    for i, (q, row) in enumerate(zip(live, near)):
        for k, lead in enumerate(leads):
            if row[lead]:
                atom_of[q] = k
                break
        else:
            atom_of[q] = len(first)
            leads.append(i)
            first.append(q)
    sharp: dict = {c: [] for c in sc.contexts}
    for (c, _), k in zip(keys, atom_of):
        if k is not None:
            sharp[c].append(k)
    return QuantumPass(states=tuple(dms), scenario=sc, keys=tuple(keys), born=born,
                       atoms=herm[first], atom_of=tuple(atom_of), first=tuple(first),
                       sharp_contexts=tuple(map(tuple, sharp.values())))


def from_quantum(state: np.ndarray, contexts, sharing: dict | None = None) -> EmpiricalModel:
    """Float Born-rule model of a density matrix under commuting projective contexts.

    The tables of `quantum_pass`, which checks the state, the sharing and
    commutation; the model passes the float no-disturbance check.
    """
    return quantum_pass([state], contexts, sharing).float_model()


# ---------------------------------------------------------------------------
# Rationalization
# ---------------------------------------------------------------------------

ZERO_TOL = 1e-9
MAX_DEN = 10 ** 6
# Half-width of the first rationalization box; each retry doubles it.
SLACK = Fraction(1, 10 ** 5)
BOX_ATTEMPTS = 10


def _round(x: float, max_den: int) -> tuple[int, int]:
    """(0, 1) at or below `ZERO_TOL`, otherwise `nearest_fraction` at max_den."""
    return (0, 1) if x <= ZERO_TOL else nearest_fraction(x, max_den)


def _sums_to_one(pairs) -> bool:
    """(numerator, denominator) pairs sum to exactly 1, added as integers over their lcm."""
    scale = math.lcm(*(q for _, q in pairs))
    return sum(p * (scale // q) for p, q in pairs) == scale


def _rounded_model(sc: MeasurementScenario, floats: dict,
                   max_den: int) -> EmpiricalModel | None:
    """Every entry rounded once by `_round`, or None.

    None at the first table whose rounded entries do not sum to exactly 1
    (`_sums_to_one`), or when the rounded marginals disagree, as
    `_filled_model` checks them.
    """
    read = []
    for c in sc.contexts:
        outs = sc.outcome_tuples(c)
        pairs = [_round(floats[c].get(o, 0.0), max_den) for o in outs]
        if not _sums_to_one(pairs):
            return None
        read.append((c, c, c, dict(zip(outs, [Fraction(p, q) for p, q in pairs]))))
    model = _filled_model(sc, read)
    return model if model.exactly_consistent else None


def _solve_box(values: list[float], centres: list[Fraction], rows, rhs,
               slack: Fraction, max_den: int):
    """Box LP ``sum(x[j] for j in rows[i]) == rhs[i]`` around the rounded float centres.

    ``rows`` lists each 0/1 row's distinct column indices.  The box
    ``lower <= x <= upper`` is solved as ``x = lower + u`` with slacks
    ``u + t = upper - lower``, ``u, t >= 0``, by `solve_eq_nonneg`, and each
    result is re-checked by `require_certificate`.  The columns are built
    once: an attempt changes only the right-hand side, and is skipped when
    that shifted right-hand side has a negative entry, since the box then
    holds no solution.  An infeasible box is retried with its half-width
    doubled, `BOX_ATTEMPTS` times in all.  Entries at or below `ZERO_TOL`
    are pinned to zero for the first five attempts.
    """
    m, n = len(rows), len(values)
    held: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            held[j].append(i)
    cols = [(*idx, m + j) for j, idx in enumerate(held)] + [(m + j,) for j in range(n)]
    box = SparseColumns(m + n, tuple((idx, (1,) * len(idx)) for idx in cols))
    for attempt in range(BOX_ATTEMPTS):
        s = slack * (2 ** attempt)
        lower, upper = [], []
        for f, c in zip(values, centres):
            if f <= ZERO_TOL:
                if attempt < 5:
                    lower.append(Fraction(0))
                    upper.append(Fraction(0))
                    continue
                c = Fraction(*nearest_fraction(f, max_den))
            lower.append(max(Fraction(0), c - s))
            upper.append(min(Fraction(1), c + s))
        b = ([r - sum(lower[j] for j in row) for r, row in zip(rhs, rows)]
             + [u - l for l, u in zip(lower, upper)])
        if any(v < 0 for v in b):
            continue
        res = require_certificate(box, b, solve_eq_nonneg(box, b), "box LP")
        if res.feasible:
            return [l + u for l, u in zip(lower, res.x)]
    return None


def _pin_dependent_atoms(values: list[float], grid: list[Fraction],
                         contexts) -> list[Fraction] | None:
    """`grid` with one atom per context set to 1 minus the context's other atoms.

    Each context's dependent atom is its largest atom above `ZERO_TOL` that
    lies in no other context.  None when a context has no such atom, or
    when a dependent atom comes out negative or moves from its float by
    more than (atoms in its context)/MAX_DEN.
    """
    count = Counter(k for ctx in contexts for k in ctx)
    out = list(grid)
    for ctx in contexts:
        free = [k for k in ctx if count[k] == 1 and values[k] > ZERO_TOL]
        if not free:
            return None
        k = max(free, key=values.__getitem__)
        out[k] = 1 - sum(grid[j] for j in ctx if j != k)
        if out[k] < 0 or abs(out[k] - Fraction(values[k])) > Fraction(len(ctx), MAX_DEN):
            return None
    return out


def rationalize_atoms(values: list[float], contexts) -> list[Fraction]:
    """Nearby rationals for atom probabilities, each context summing to exactly 1.

    ``contexts`` lists index groups of ``values`` (the atoms of one sharp
    context each).  Three stages, the first that succeeds wins:

    1. Every value is rounded once, by `rationalize_model`'s rule at
       `MAX_DEN`.  If every context then sums to exactly 1 the rounded
       values are returned, so each moves by at most
       max(1/(2 MAX_DEN), ZERO_TOL).
    2. Every value is rounded to the 1/MAX_DEN grid (so values at or
       below `ZERO_TOL` become 0), and one dependent atom per context, the
       largest above `ZERO_TOL` that no other context holds, is set to 1
       minus the context's other atoms.  This is accepted when every
       dependent atom is >= 0 and within k/MAX_DEN of its float, k being
       its context's size; the other atoms move by at most 1/(2 MAX_DEN).
       Denominators divide MAX_DEN.
    3. One exact box LP, with one "context sums to 1" row per context,
       under `rationalize_model`'s retry and zero-pinning policy at
       half-width `SLACK`, so each value moves by at most
       2**9 SLACK + 1/(2 MAX_DEN).  The box is centred on the grid, so its
       bounds, and the vertex the LP returns, keep denominators near
       MAX_DEN.  Only a context without an exclusive atom above
       `ZERO_TOL`, or a failed stage 2, reaches it.
    """
    rounded = [_round(f, MAX_DEN) for f in values]
    if all(_sums_to_one([rounded[k] for k in ctx]) for ctx in contexts):
        return [Fraction(p, q) for p, q in rounded]
    grid = [Fraction(round(f * MAX_DEN), MAX_DEN) for f in values]
    pinned = _pin_dependent_atoms(values, grid, contexts)
    if pinned is not None:
        return pinned
    sol = _solve_box(values, grid, contexts, [Fraction(1)] * len(contexts),
                     SLACK, MAX_DEN)
    if sol is None:
        raise ValueError("could not rationalize the atom probabilities")
    return sol


# Exact atoms are taken on the 1/2**ATOM_BITS grid, and only when every
# entry's real and imaginary parts lie within ATOM_TOL of it.
ATOM_BITS = 20
ATOM_TOL = 1e-12


def _dyadic(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Real and imaginary parts of ``mats`` times 2**ATOM_BITS, as int64, or None.

    None unless each part lies within `ATOM_TOL` (before scaling) of an
    integer, and that integer is at most 2**ATOM_BITS in size, as an entry
    of a product of projectors is.
    """
    scaled = mats * 2 ** ATOM_BITS
    parts = []
    for part in (scaled.real, scaled.imag):
        near = np.rint(part)
        if (np.abs(part - near).max() > ATOM_TOL * 2 ** ATOM_BITS
                or np.abs(near).max() > 2 ** ATOM_BITS):
            return None
        parts.append(near.astype(np.int64))
    return parts[0], parts[1]


def _grid_state(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A Hermitian, trace-exactly-1 state near ``rho`` on the 1/MAX_DEN grid.

    As int64 real and imaginary parts times `MAX_DEN`.  The upper triangle
    is rounded entry by entry and mirrored, and the first largest diagonal
    entry then takes what brings the trace to exactly `MAX_DEN`: at most
    d/2 steps for a trace within 1e-12 of 1.
    """
    re, im = np.rint(rho.real * MAX_DEN), np.rint(rho.imag * MAX_DEN)
    re = (np.triu(re) + np.triu(re, 1).T).astype(np.int64)
    im = (np.triu(im, 1) - np.triu(im, 1).T).astype(np.int64)
    k = int(np.argmax(np.diagonal(re)))
    re[k, k] += MAX_DEN - int(np.trace(re))
    return re, im


def _exact_born(rho: np.ndarray, atoms: np.ndarray, floats: np.ndarray) -> list[Fraction] | None:
    """tr(rho~ A) in exact integers for each atom A snapped by `_dyadic`, or None.

    rho~ is `_grid_state` of ``rho``.  Both are Hermitian, so the trace is
    real: the sum over i, j of Re(rho~_ij) Re(A_ji) - Im(rho~_ij) Im(A_ji),
    over MAX_DEN * 2**ATOM_BITS.  No int64 overflows: a state's entries are
    at most 1 in size, so rho~'s integers are at most MAX_DEN + d < 2**20
    (d <= 16), the atoms' at most 2**20, and each trace adds 2 d**2 <= 2**9
    products, so every sum is below 2**49.  None when an atom does not
    snap, when a value comes out negative, or when one whose float
    ``floats`` is at most `ZERO_TOL` is not exactly 0.
    """
    snapped = _dyadic(atoms)
    if snapped is None:
        return None
    re, im = _grid_state(rho)
    values = (np.einsum("ij,aji->a", re, snapped[0])
              - np.einsum("ij,aji->a", im, snapped[1])).tolist()
    if min(values) < 0 or any(v and f <= ZERO_TOL for v, f in zip(values, floats.tolist())):
        return None
    den = MAX_DEN << ATOM_BITS
    return [Fraction(v, den) for v in values]


def _mobius(arr: np.ndarray, sign: int) -> None:
    """In place, along every axis, add `sign` times the other slots to the last slot.

    With sign +1 a joint table becomes its coordinates: where an axis sits
    at its last outcome, that measurement is summed out.  Sign -1 undoes it.
    """
    for axis in range(arr.ndim):
        head = (slice(None),) * axis
        arr[head + (-1,)] += sign * arr[head + (slice(0, -1),)].sum(axis=axis)


def _subset_blocks(context, shape) -> list:
    """(S, slice of S's coordinates, its shape) for every subset S of `context`.

    A measurement in S ranges over all but its last outcome; one outside S
    sits at its last outcome, where the coordinates sum it out.
    """
    blocks = []
    for inside in itertools.product((False, True), repeat=len(shape)):
        blocks.append((tuple(m for m, i in zip(context, inside) if i),
                       tuple(slice(0, n - 1) if i else slice(n - 1, n)
                             for n, i in zip(shape, inside)),
                       tuple(n - 1 if i else 1 for n, i in zip(shape, inside))))
    return blocks


def _coordinate_model(sc: MeasurementScenario, floats: dict,
                      max_den: int) -> EmpiricalModel | None:
    """Every table rebuilt from one shared set of grid-rounded coordinates, or None.

    A coordinate (Collins-Gisin) is P(x_m = o_m for m in S) with S inside a
    context and no o_m the last outcome of m.  It is read from the first
    context that contains S and rounded to the 1/max_den grid; the empty S
    is exactly 1.  Each table is rebuilt from the coordinates of its
    subsets by inclusion-exclusion, so it sums to exactly 1 and its
    marginal on every overlap is the same function of the same shared
    coordinates.  None unless every entry is >= 0, every entry whose float
    is at most `ZERO_TOL` is exactly 0, and every entry of an N-entry table
    is within N/max_den of its float (an entry sums at most N coordinates,
    each within about 1/(2 max_den) of its float).
    """
    arrays = {c: np.array([floats[c].get(o, 0.0) for o in sc.outcome_tuples(c)])
              .reshape([len(sc.outcomes[m]) for m in c]) for c in sc.contexts}
    blocks = {c: _subset_blocks(c, arr.shape) for c, arr in arrays.items()}
    coords: dict = {(): np.array([max_den])}
    for c, arr in arrays.items():
        g = arr.copy()
        _mobius(g, 1)
        g = np.rint(g * max_den).astype(np.int64)
        for s, ix, _ in blocks[c]:
            if s not in coords:
                coords[s] = g[ix]

    tables = {}
    for c, arr in arrays.items():
        rebuilt = np.empty(arr.shape, dtype=np.int64)
        for s, ix, shape in blocks[c]:
            rebuilt[ix] = coords[s].reshape(shape)
        _mobius(rebuilt, -1)
        if ((rebuilt < 0).any() or (rebuilt[arr <= ZERO_TOL] != 0).any()
                or (np.abs(rebuilt - arr * max_den) > arr.size).any()):
            return None
        tables[c] = {o: Fraction(v, max_den) for o, v
                     in zip(sc.outcome_tuples(c), rebuilt.ravel().tolist())}
    return EmpiricalModel(scenario=sc, tables=tables)


def rationalize_model(model: EmpiricalModel, max_den: int = MAX_DEN) -> EmpiricalModel:
    """Nearby all-rational model that is exactly normalised and exactly marginal-consistent.

    A model found exactly consistent (by `make_model`, for the models it
    builds) passes through unchanged.  A model whose marginals disagree by
    more than `ND_TOL` raises `DisturbingModel`.  Otherwise three stages
    run in turn, and the first whose result passes its checks is returned:

    1. Entry rounding (`_rounded_model`), by `_round` at `max_den`: each
       entry moves by at most max(1/(2 max_den), ZERO_TOL), so a float copy
       of a small-denominator model comes back as that model.  A rounded
       model that fails is never corrected entry by entry.
    2. Coordinates (`_coordinate_model`): the Collins-Gisin coordinates are
       rounded once to the 1/max_den grid and every table is rebuilt from
       them, exactly consistent by construction.  It fails where a zero
       entry is a sum of several nonzero coordinates, such as the parity
       zeros of the Peres-Mermin square.
    3. Box LPs.  Overlap distributions are fixed first (smallest overlaps
       first, each constrained to agree with previously fixed
       sub-overlaps), then each context table is rebuilt subject to the
       fixed overlap marginals.  Each step is an exact box LP around the
       rounded entries, of half-width `SLACK` for an overlap and
       `2 SLACK` for a table.  An infeasible box is retried with its
       half-width doubled, up to 2**9 times the first, so an entry can
       move by about 2**10 SLACK (1e-2) at most.  Entries at or below
       `ZERO_TOL` are pinned to exact zero for the first five attempts, so
       that downstream support arguments remain valid; from the sixth
       attempt on they are boxed like the others.
    """
    if model.exactly_consistent:
        return model

    report = validate_no_disturbance(model)
    if not report.passed:
        raise DisturbingModel(str(report))

    sc = model.scenario
    float_tables = {c: {o: float(v) for o, v in t.items()} for c, t in model.tables.items()}
    rounded = _rounded_model(sc, float_tables, max_den)
    if rounded is not None:
        return rounded
    rebuilt = _coordinate_model(sc, float_tables, max_den)
    if rebuilt is not None:
        return rebuilt

    fixed: dict[tuple, dict] = {}

    def box(labels, floats: dict, half, what: str) -> dict:
        """The table on `labels` from a box LP: it sums to 1 and has every
        fixed smaller overlap inside `labels` as its marginal."""
        outs = sc.outcome_tuples(labels)
        values = [floats.get(o, 0.0) for o in outs]
        rows, rhs = [range(len(outs))], [Fraction(1)]
        for w, table in fixed.items():
            if set(w) < set(labels):
                idx = [labels.index(m) for m in w]
                for wo, wv in table.items():
                    rows.append([k for k, o in enumerate(outs)
                                 if tuple(o[i] for i in idx) == wo])
                    rhs.append(wv)
        centres = [Fraction(*_round(f, max_den)) for f in values]
        sol = _solve_box(values, centres, rows, rhs, half, max_den)
        if sol is None:
            raise ValueError(f"could not rationalize {what} {labels}")
        return dict(zip(outs, sol))

    for u in sorted({overlap for _, _, overlap in sc.overlaps}, key=lambda u: (len(u), u)):
        host = next(c for c in sc.contexts if set(u) <= set(c))
        margin = _marginal(sc, float_tables[host], host, u)
        fixed[u] = box(u, dict(zip(sc.outcome_tuples(u), margin)), SLACK, "overlap")
    new_tables = {c: fixed[c] if c in fixed
                  else box(c, float_tables[c], 2 * SLACK, "context") for c in sc.contexts}
    out = EmpiricalModel(scenario=sc, tables=new_tables)
    if not out.exactly_consistent:
        raise AssertionError("rationalized model lost exact marginal consistency")
    return out


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _value_to_json(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    return float(v)


# Digits, and decimal exponent, of the longest exact literal a document may
# hold: Fraction("1e30000000") would build a 30-million-digit integer.
MAX_LITERAL_DIGITS = 1000
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)")


def rational_literal(value, what: str) -> Fraction:
    """An int, or an exact string such as '3', '-1/2', '0.25' or '1e-3', as a Fraction.

    The one reader of exact numbers in documents.  Bools, floats and other
    types are refused, and so is a string with more than
    `MAX_LITERAL_DIGITS` digits or a decimal exponent beyond that bound,
    before any Fraction is built; every refusal is a `SchemaError` naming
    ``what``.  A string is read as ``Fraction(value)`` reads it: an integer
    or a 'p/q' string by one or two `int` calls, and every other form (a
    decimal, an exponent, an underscore, a space or sign beside the slash)
    by `Fraction` itself, whose grammar varies with the Python version.
    """
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"{what} must be an integer or an exact string, "
                          f"got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    try:
        # What `int` reads (no exponent, digits at most its length) goes first;
        # underscores and a space or sign beside the slash go to Fraction.
        if len(value) <= MAX_LITERAL_DIGITS and "_" not in value:
            # `int` strips less whitespace than `Fraction` (not U+001C-U+001F).
            num, slash, den = value.strip().partition("/")
            if not slash or num[-1:].isdecimal() and den[:1].isdecimal():
                try:
                    return Fraction(int(num), int(den) if slash else 1)
                except ValueError:
                    pass  # a decimal point or an exponent, read below
        exponent = _EXPONENT.search(value)
        oversized = (len(value) > MAX_LITERAL_DIGITS
                     and sum(c.isdigit() for c in value) > MAX_LITERAL_DIGITS
                     or exponent and abs(int(exponent.group(1))) > MAX_LITERAL_DIGITS)
        if not oversized:
            return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad {what} {value!r}") from exc
    shown = value if len(value) <= 24 else value[:24] + "..."
    raise SchemaError(f"{what} {shown!r} exceeds {MAX_LITERAL_DIGITS} "
                      "digits or a decimal exponent of that size")


def json_list(value, what: str):
    """``value`` when it is a JSON array (a list, or a tuple), else a `SchemaError`.

    A string iterates one character at a time, so one where a list belongs
    would pass for a list of one-character labels or outcomes.
    """
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"{what} must be a list, got {value!r}")
    return value


def model_to_json(model: EmpiricalModel) -> dict:
    sc = model.scenario
    return {
        "measurements": [{"label": m, "outcomes": list(sc.outcomes[m])}
                         for m in sc.measurements],
        "contexts": [list(c) for c in sc.contexts],
        "tables": {
            ",".join(str(m) for m in c): {
                ",".join(str(o) for o in outc): _value_to_json(v)
                for outc, v in table.items()
            }
            for c, table in model.tables.items()
        },
    }


def model_from_json(doc: dict) -> EmpiricalModel:
    """Parse {"measurements", "contexts", "tables"}; rationals accepted as "3/10".

    An outcome token names the declared outcome whose `str` it is.  Float
    entries stay floats; every other entry goes through `rational_literal`,
    once per distinct string.  Keys and outcome tuples are read in canonical
    order, and handed on to be filled and checked as `make_model` does.
    """
    try:
        meas = [(m["label"], tuple(json_list(m["outcomes"], f"outcomes of measurement "
                                                            f"{m['label']!r}")))
                for m in json_list(doc["measurements"], "'measurements'")]
        contexts = [list(json_list(c, "a context"))
                    for c in json_list(doc["contexts"], "'contexts'")]
        raw_tables = doc["tables"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"missing or malformed field: {exc}") from exc
    for label, outcomes in meas:
        if not isinstance(label, str):
            raise SchemaError(f"measurement label {label!r} is not a string")
        if any(isinstance(o, (list, dict)) for o in outcomes):
            raise SchemaError(f"outcomes of measurement {label!r} must be "
                              f"numbers or strings, got {list(outcomes)!r}")
    if not all(isinstance(lab, str) for ctx in contexts for lab in ctx):
        raise SchemaError("context members must be measurement labels")
    if not isinstance(raw_tables, dict):
        raise SchemaError("'tables' must map context keys to outcome tables")
    try:
        scenario = make_scenario(meas, contexts)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc

    tokens = {m: {str(o): o for o in outcomes} for m, outcomes in scenario.outcomes.items()}
    read, literals = [], {}
    for key, table in raw_tables.items():
        if not isinstance(table, dict):
            raise SchemaError(f"table {key!r} must map outcome keys to "
                              "probabilities")
        labels = tuple(key.split(","))
        try:
            perm = scenario.canonical_positions(labels)
        except LabelMismatch as exc:
            raise SchemaError(str(exc)) from exc
        lookups = [tokens[labels[i]] for i in perm]
        entries = {}
        for okey, val in table.items():
            parts = okey.split(",")
            if len(parts) != len(labels):
                raise SchemaError(f"outcome key {okey!r} has wrong arity for {key!r}")
            try:
                outc = tuple(map(getitem, lookups, map(parts.__getitem__, perm)))
            except KeyError:
                t, m = next((t, m) for t, m in zip(parts, labels) if t not in tokens[m])
                raise SchemaError(f"outcome token {t!r} not among declared outcomes "
                                  f"{scenario.outcomes[m]}") from None
            if isinstance(val, str):
                if val not in literals:
                    literals[val] = rational_literal(val, "probability entry")
                val = literals[val]
            elif not isinstance(val, float):
                val = rational_literal(val, "probability entry")
            entries[outc] = val
        read.append((key, labels, tuple(map(labels.__getitem__, perm)), entries))
    try:
        return _filled_model(scenario, read)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
