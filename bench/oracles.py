"""Independent correctness oracles and certificate re-checks.

Nothing here imports the package under test.  Verdict oracles come from
closed-form criteria in exact arithmetic:

- a two-setting, two-outcome box is local iff all eight CHSH forms are at
  most 2 (Fine 1982);
- an n-cycle model is noncontextual iff no odd sign pattern s gives
  sum_i s_i E_i > n - 2 (Araujo et al. 2013);
- two preparations declared operationally equivalent are preparation
  contextual iff their statistics differ: equal marginals admit one shared
  ontic distribution, distinct ones admit none.

Certificates printed for a ``no`` verdict are re-checked by direct
arithmetic over columns this module enumerates itself: every global
assignment for a global-section dual, every local deterministic strategy
for a separating inequality, and every context-consistent atom assignment
for a simplex-embedding refusal.

Each ``check_*`` function takes the parsed output of one CLI call and
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# The rationalizer widens its box around float entries from 1e-5 up to 512
# times that over ten retries (2e-5 per context entry at the start), so a
# faithful rational model can sit up to about 1e-2 from the printed floats.
FLOAT_INPUT_TOL = Fraction(1, 50)


def num(value) -> Fraction:
    """Exact value of a printed number: int, float or "a/b" string."""
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    return Fraction(value)


# ---------------------------------------------------------------------------
# Verdict oracles


def chsh_max(p: dict) -> Fraction:
    """Largest of the eight CHSH forms of a box p[(a, b, x, y)], x, y in {0, 1}."""
    corr = {(x, y): sum((1 - 2 * ((a + b) % 2)) * p[(a, b, x, y)]
                        for a in range(2) for b in range(2))
            for x in range(2) for y in range(2)}
    total = sum(corr.values())
    return max(abs(total - 2 * corr[k]) for k in corr)


def cycle_margin(correlators) -> Fraction:
    """max over odd sign patterns of sum s_i E_i, minus (n - 2)."""
    n = len(correlators)
    signs = [1 if e >= 0 else -1 for e in correlators]
    best = sum(abs(e) for e in correlators)
    if signs.count(-1) % 2 == 0:
        best -= 2 * min(abs(e) for e in correlators)
    return best - (n - 2)


def cycle_contextual(correlators) -> bool:
    return cycle_margin(correlators) > 0


# ---------------------------------------------------------------------------
# Certificate re-checks


def _table_value(tables: dict, ctx: tuple, sec: tuple):
    """Document entry for a context section, or None if the key is absent."""
    table = tables.get(",".join(ctx))
    if table is None:
        return None
    return table.get(",".join(sec))


def recheck_section(cert: dict, tables: dict | None = None) -> list:
    """Re-check a global-section Farkas dual y: y^T M <= 0 and y^T v > 0.

    M is rebuilt here from the certificate's row labels by enumerating every
    global assignment.  ``tables`` (a document's "tables" object) ties the
    right-hand side to the input: exact entries must match exactly, float
    entries within ``FLOAT_INPUT_TOL``.
    """
    problems = []
    try:
        dual = [num(v) for v in cert["dual"]]
        rhs = [num(v) for v in cert["rhs"]]
        rows = []
        for label in cert["rows"]:
            ctx_part, sec_part = label.split("|")
            rows.append((tuple(ctx_part.split(",")), tuple(sec_part.split(","))))
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return [f"global-section certificate unreadable: {exc!r}"]
    if not len(dual) == len(rhs) == len(rows):
        return ["global-section certificate has mismatched lengths"]

    per_context: dict = {}
    outcomes: dict = {}
    for (ctx, sec), v in zip(rows, rhs):
        per_context[ctx] = per_context.get(ctx, Fraction(0)) + v
        if v < 0:
            problems.append(f"negative rhs entry {v} at {ctx}|{sec}")
        for m, o in zip(ctx, sec):
            outcomes.setdefault(m, [])
            if o not in outcomes[m]:
                outcomes[m].append(o)
        if tables is not None:
            given = _table_value(tables, ctx, sec)
            if given is None:
                problems.append(f"rhs row {ctx}|{sec} not in the input document")
            elif isinstance(given, float):
                if abs(Fraction(given) - v) > FLOAT_INPUT_TOL:
                    problems.append(f"rhs {v} strays from input {given} at {ctx}|{sec}")
            elif num(given) != v:
                problems.append(f"rhs {v} differs from exact input {given} "
                                f"at {ctx}|{sec}")
    for ctx, total in per_context.items():
        if total != 1:
            problems.append(f"rhs of context {ctx} sums to {total}")

    if sum(y * v for y, v in zip(dual, rhs)) <= 0:
        problems.append("global-section dual has y^T v <= 0")
    labels = list(outcomes)
    position = {m: i for i, m in enumerate(labels)}
    weight = {}
    for (ctx, sec), y in zip(rows, dual):
        weight[(ctx, sec)] = weight.get((ctx, sec), Fraction(0)) + y
    contexts = [(ctx, [position[m] for m in ctx]) for ctx in per_context]
    for assignment in itertools.product(*(outcomes[m] for m in labels)):
        total = sum((weight.get((ctx, tuple(assignment[i] for i in idx)), 0)
                     for ctx, idx in contexts), Fraction(0))
        if total > 0:
            problems.append(f"global-section dual positive on assignment {assignment}")
            break
    return problems


def recheck_separating(cert: dict, p: dict | None = None,
                       as_float: bool = False) -> list:
    """Re-check a separating inequality against every deterministic strategy.

    Every strategy must score at most the bound, and the behaviour must
    score above it.  ``p`` is the input box p[(a, b, x, y)]; when given, the
    score is recomputed from the input itself (from the printed floats when
    ``as_float``), otherwise the certificate's own value is used.
    """
    try:
        sep = cert["separating"]
        coeffs = {}
        for key, v in sep["coefficients"].items():
            ab, xy = key.split("|")
            a, b = (int(t) for t in ab.split(","))
            x, y = (int(t) for t in xy.split(","))
            coeffs[(a, b, x, y)] = num(v)
        bound = num(sep["bound"])
        reported = num(cert["value_on_behaviour"])
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return [f"separating certificate unreadable: {exc!r}"]
    problems = []
    n_x = 1 + max(k[2] for k in coeffs)
    n_y = 1 + max(k[3] for k in coeffs)
    n_a = 1 + max(k[0] for k in coeffs)
    n_b = 1 + max(k[1] for k in coeffs)
    best = None
    for f in itertools.product(range(n_a), repeat=n_x):
        for g in itertools.product(range(n_b), repeat=n_y):
            score = sum((coeffs.get((f[x], g[y], x, y), 0)
                         for x in range(n_x) for y in range(n_y)), Fraction(0))
            best = score if best is None or score > best else best
    if best > bound:
        problems.append(f"deterministic strategy scores {best} above bound {bound}")
    if p is not None:
        value = sum((c * (Fraction(float(p[k])) if as_float else p[k])
                     for k, c in coeffs.items()), Fraction(0))
        if not as_float and value != reported:
            problems.append(f"reported value {reported} differs from input value {value}")
    else:
        value = reported
    if not value > bound:
        problems.append(f"behaviour scores {value}, not above bound {bound}")
    return problems


def recheck_refusal(cert: dict, sharp_contexts) -> list:
    """Re-check a simplex-embedding refusal over consistent atom assignments.

    Columns are the 0/1 assignments to the certificate's atoms that fire
    exactly one atom in every sharp context, each followed by a 1 for the
    normalisation row.
    """
    try:
        atoms = [int(a) for a in cert["atoms"]]
        farkas = [num(v) for v in cert["farkas"]]
        rhs = [num(v) for v in cert["rhs"]]
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return [f"refusal certificate unreadable: {exc!r}"]
    if not len(farkas) == len(rhs) == len(atoms) + 1:
        return ["refusal certificate has mismatched lengths"]
    problems = []
    position = {a: i for i, a in enumerate(atoms)}
    contexts = [[position[i] for i in ctx] for ctx in sharp_contexts]
    if rhs[-1] != 1 or any(sum(rhs[i] for i in ctx) != 1 for ctx in contexts):
        problems.append("refusal rhs is not a distribution on every context")
    if sum(y * v for y, v in zip(farkas, rhs)) <= 0:
        problems.append("refusal certificate has y^T v <= 0")
    for bits in itertools.product((0, 1), repeat=len(atoms)):
        if any(sum(bits[i] for i in ctx) != 1 for ctx in contexts):
            continue
        if sum(y for y, bit in zip(farkas, bits) if bit) + farkas[-1] > 0:
            problems.append(f"refusal certificate positive on assignment {bits}")
            break
    return problems


# ---------------------------------------------------------------------------
# Output checks per operation kind


def _certs(payload: dict, role: str) -> list:
    return [c for c in payload.get("certificates", []) if c.get("role") == role]


def _expect(payload: dict, key: str, wanted) -> list:
    got = payload.get(key)
    ok = got in wanted if isinstance(wanted, tuple) else got == wanted
    return [] if ok else [f"{key} is {got!r}, expected {wanted!r}"]


def _section_no(payload: dict, tables: dict | None) -> list:
    certs = [c for c in _certs(payload, "ks") if c.get("kind") == "global-section"]
    if not certs:
        return ["ks verdict no without a global-section certificate"]
    return [p for c in certs for p in recheck_section(c, tables)]


def check_bipartite_report(payload: dict, doc: dict, p: dict, as_float: bool,
                           expected: str) -> list:
    """Two-party box: Bell and KS verdicts both equal the CHSH oracle's."""
    problems = (_expect(payload, "bell_local", expected)
                + _expect(payload, "ks_noncontextual", expected))
    if expected == "no":
        problems += _expect(payload, "spekkens_noncontextual", "no")
        bell = [c for c in _certs(payload, "bell")
                if c.get("kind") == "local-polytope-membership"]
        if not bell:
            problems.append("bell verdict no without a separating certificate")
        for c in bell:
            problems += recheck_separating(c, p, as_float)
        problems += _section_no(payload, doc["model"]["tables"])
    return problems


def check_single_system_report(payload: dict, expected: str,
                               tables: dict | None = None) -> list:
    """Cycles and quantum documents: no Bell verdict, KS as the oracle says."""
    problems = (_expect(payload, "ks_noncontextual", expected)
                + _expect(payload, "bell_local", "not-applicable"))
    if expected == "no":
        problems += _expect(payload, "spekkens_noncontextual", "no")
        problems += _section_no(payload, tables)
    return problems


def check_gpt_report(payload: dict, doc: dict, expected: str | None) -> list:
    """Sharp GPTs follow the cycle oracle; classical unsharp ones are never no."""
    problems = _expect(payload, "bell_local", "not-applicable")
    if expected is None:
        return (problems + _expect(payload, "ks_noncontextual", "undecided")
                + _expect(payload, "spekkens_noncontextual", ("yes", "undecided")))
    problems += _expect(payload, "ks_noncontextual", expected)
    if expected == "no":
        problems += _expect(payload, "spekkens_noncontextual", "no")
        problems += _section_no(payload, None)
        for c in _certs(payload, "spekkens"):
            if c.get("kind") == "simplex-embedding-refusal":
                problems += recheck_refusal(c, doc["gpt"]["sharp_contexts"])
    return problems


def check_prep_report(payload: dict) -> list:
    """Six-decomposition qubit ensembles are preparation contextual for 0 < r < 1."""
    return (_expect(payload, "spekkens_noncontextual", "no")
            + _expect(payload, "ks_noncontextual", "undecided")
            + _expect(payload, "bell_local", "not-applicable"))


def check_kcbs(payload: dict) -> list:
    problems = (_expect(payload, "global_section", "infeasible")
                + _expect(payload, "csw_violated", True))
    for c in payload.get("certificates", []):
        problems += recheck_section(c)
    return problems


def check_chsh(payload: dict, alpha: float) -> list:
    expected = "outside" if alpha * 2 * math.sqrt(2) > 2 else "inside"
    problems = _expect(payload, "membership", expected)
    if expected == "outside":
        for c in payload.get("certificates", []):
            problems += recheck_separating(c)
    return problems


def check_prep_nc(payload: dict) -> list:
    return (_expect(payload, "verdict", "infeasible")
            + _expect(payload, "infeasible_cases", payload.get("cases")))


def check_convert_bell(payload: dict) -> list:
    return _expect(payload, "ld_maximum", payload.get("bound"))


def check_qsl(payload: dict, shots: int) -> list:
    problems = _expect(payload, "shots", shots)
    fidelity = payload.get("fidelity")
    if not isinstance(fidelity, float) or fidelity < 0.9:
        problems.append(f"qsl fidelity {fidelity!r} below 0.9")
    return problems


def check_pm_square(payload: dict) -> list:
    problems = (_expect(payload, "satisfying_assignments", 0)
                + _expect(payload, "global_section_verdicts", ["infeasible"]))
    for c in payload.get("certificates", []):
        problems += recheck_section(c)
    return problems


def check_pusey(payload: dict, differ: bool) -> list:
    """Two preparations declared equivalent: contextual iff their statistics
    differ, by the scan and by the equivalence LP alike."""
    return (_expect(payload, "verdict", "contextual" if differ else "inconclusive")
            + _expect(payload, "scan_contextual", differ)
            + _expect(payload, "equivalence_contextual", differ)
            + _expect(payload, "pairs_checked", 1))
