"""Classicality hierarchy classifier with machine-checkable certificates.

Given an empirical model, a quantum scenario, a generalized probabilistic
theory, or a qubit preparation ensemble, this module runs the applicable
testers and assembles a three-verdict report: Bell locality (for inputs
with a complete two-party structure), existence of a global outcome
assignment (Kochen-Specker noncontextuality), and existence of a simplex
embedding or noncontextual ontic expansion (Spekkens noncontextuality).

The verdicts form an implication lattice: Bell nonlocality implies the
absence of a global assignment, which in turn implies the absence of a
noncontextual ontic expansion, and a certified ontic expansion requires
the other two verdicts not to contradict it.  Every assembled report is
checked against the lattice; a violation raises `LatticeViolation`, an
internal bug sentinel that no input should ever trigger.

Verification strategy: each "no" verdict carries the certificate produced
and re-verified by the underlying solver (exact Farkas duals, separating
inequalities with exact vertex bounds, per-pattern preparation witnesses);
an ontic-expansion "no" inferred from an assignment "no" says so.
Bell and assignment verdicts come from one LP: on bipartite empirical
inputs the membership verdict and its separating inequality are read off
the solved global-section system, so the two verdicts agree by
construction.  Sub-tests are independent of each
other; sequential execution here is one valid schedule of the parallel
composition.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .embedding import (
    Gpt,
    GptError,
    PrepEnsembleProblem,
    UnsharpEffectFlagged,
    embed_lp,
    embed_sharp,
    gpt_from_json,
    gpt_from_pass,
    prep_nc_check,
    qubit_prep_ensemble,
)
from .exactlp import TooLargeError
from .polytope import bipartite_structure, membership_from_section
from .quantum import QuantumInputError, matrix_from_json, projective_context
from .record import Fresh, Record
from .scenario import (
    EmpiricalModel,
    SchemaError,
    json_list,
    model_from_json,
    quantum_pass,
    rational_literal,
)
from .sheaf import solve_global_section

YES = "yes"
NO = "no"
UNDECIDED = "undecided"
NOT_APPLICABLE = "not-applicable"

KINDS = ("empirical", "quantum", "gpt", "prep-ensemble")

BELL_VALUES = (YES, NO, NOT_APPLICABLE)
TRI_VALUES = (YES, NO, UNDECIDED)

# Ontic-expansion verdict of each `embed_sharp` and `embed_lp` verdict.
_EMBED_VERDICT = {"embeddable": YES, "refused": NO, "undecided": UNDECIDED}

HIERARCHY_LEVELS = (
    "bell-nonlocal",
    "ks-contextual",
    "spekkens-contextual",
    "spekkens-noncontextual",
    "ks-noncontextual",
    "bell-local",
    "undecided",
)


class LatticeViolation(AssertionError):
    """Bug sentinel: an assembled report broke the implication lattice."""


class RunConfig(Record):
    """Execution knobs: the expected input kind and the seed echoed in reports."""

    kind: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind is not None and self.kind not in KINDS:
            raise SchemaError(f"unknown input kind {self.kind!r}; "
                              f"expected one of {KINDS}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise SchemaError("seed must be a nonnegative integer")


class ClassificationReport(Record):
    """Three-verdict classicality report with certificates and notes."""

    bell_local: str
    ks_noncontextual: str
    spekkens_noncontextual: str
    hierarchy_level: str
    certificates: tuple
    notes: tuple = ()
    claims: dict | None = None
    claim_check: str | None = None


def check_implications(report: ClassificationReport) -> str | None:
    """Pure lattice check: `None` when consistent, else a violation detail.

    The rules: Bell nonlocality forces the assignment verdict to "no"; an
    assignment "no" forces the ontic-expansion verdict to "no"; an
    ontic-expansion "yes" requires the assignment verdict in {yes, undecided}
    and the Bell verdict in {yes, not-applicable}.
    """
    bell = report.bell_local
    ks = report.ks_noncontextual
    sp = report.spekkens_noncontextual
    if bell not in BELL_VALUES:
        return f"bell_local must be one of {BELL_VALUES}, got {bell!r}"
    if ks not in TRI_VALUES:
        return f"ks_noncontextual must be one of {TRI_VALUES}, got {ks!r}"
    if sp not in TRI_VALUES:
        return f"spekkens_noncontextual must be one of {TRI_VALUES}, got {sp!r}"
    if bell == NO and ks != NO:
        return f"bell_local=no requires ks_noncontextual=no, got {ks!r}"
    if ks == NO and sp != NO:
        return f"ks_noncontextual=no requires spekkens_noncontextual=no, got {sp!r}"
    if sp == YES and ks not in (YES, UNDECIDED):
        return f"spekkens_noncontextual=yes forbids ks_noncontextual={ks!r}"
    if sp == YES and bell not in (YES, NOT_APPLICABLE):
        return f"spekkens_noncontextual=yes forbids bell_local={bell!r}"
    return None


def hierarchy_level(bell: str, ks: str, sp: str) -> str:
    """Ladder label for a verdict triple, most nonclassical level first."""
    if bell == NO:
        return "bell-nonlocal"
    if ks == NO:
        return "ks-contextual"
    if sp == NO:
        return "spekkens-contextual"
    if sp == YES:
        return "spekkens-noncontextual"
    if ks == YES:
        return "ks-noncontextual"
    if bell == YES:
        return "bell-local"
    return "undecided"


def _claim_check(claims: dict | None, bell: str, ks: str, sp: str) -> str | None:
    if not claims or not claims.get("classical"):
        return None
    if NO in (bell, ks, sp):
        return "refuted"
    if bell in (YES, NOT_APPLICABLE) and ks == YES and sp == YES:
        return "consistent"
    return "undetermined"


def assemble_report(bell: str, ks: str, sp: str, certificates=(), notes=(),
                    claims: dict | None = None) -> ClassificationReport:
    """Build a report, asserting the implication lattice.

    Raises `LatticeViolation` when the triple breaks the lattice; routing
    in this module infers downward implications before assembly, so the
    sentinel firing means a solver bug, not bad input.
    """
    report = ClassificationReport(
        bell_local=bell,
        ks_noncontextual=ks,
        spekkens_noncontextual=sp,
        hierarchy_level=hierarchy_level(bell, ks, sp),
        certificates=tuple(certificates),
        notes=tuple(notes),
        claims=dict(claims) if claims else None,
        claim_check=_claim_check(claims, bell, ks, sp),
    )
    violation = check_implications(report)
    if violation is not None:
        raise LatticeViolation(violation)
    return report


def _deterministic(model: EmpiricalModel) -> bool:
    return all(v == 0 or v == 1
               for table in model.tables.values() for v in table.values())


# ---------------------------------------------------------------------------
# Per-kind classifiers
# ---------------------------------------------------------------------------

def classify_model(model: EmpiricalModel) -> ClassificationReport:
    """Classify an empirical model (per-context outcome tables).

    The assignment verdict comes from the exact global-section solver.  When
    the scenario has a complete two-party layout its local deterministic
    vertices are the global assignments, so the Bell verdict and its
    separating inequality are read off the same solved LP
    (`membership_from_section`) and no second LP runs.  The ontic-expansion
    verdict is inferred downward from a "no", read off a deterministic
    table, and left undecided otherwise: a bare table carries no embedding
    structure to test.
    """
    certificates: list = []
    notes: list = []

    section = None
    try:
        section = solve_global_section(model)
        ks = YES if section.feasible else NO
        certificates.append({"role": "ks", **section.certificate()})
    except TooLargeError as exc:
        ks = UNDECIDED
        notes.append(f"global-section solver skipped: {exc}")

    sides = bipartite_structure(model)
    if sides is None:
        bell = NOT_APPLICABLE
        notes.append("no complete two-party structure; Bell verdict "
                     "not applicable")
    elif section is None:
        bell = NOT_APPLICABLE
        notes.append("membership is read off the skipped global-section "
                     "solve; Bell verdict not applicable")
    else:
        membership = membership_from_section(section, sides)
        bell = YES if membership.inside else NO
        certificates.append({"role": "bell", **membership.certificate()})

    if ks == NO:
        sp = NO
        certificates.append({"role": "spekkens",
                             "kind": "implied-by-ks-contextuality"})
        notes.append("ontic-expansion verdict inferred: no global assignment "
                     "exists, so no noncontextual expansion exists")
    elif ks == YES and _deterministic(section.model):
        sp = YES
        notes.append("deterministic table: the point assignment itself is a "
                     "noncontextual ontic model")
    else:
        sp = UNDECIDED
        notes.append("a bare empirical table carries no embedding structure; "
                     "ontic-expansion verdict undecided")
    return assemble_report(bell, ks, sp, certificates, notes)


def classify_quantum(state, contexts, sharing: dict | None = None) -> ClassificationReport:
    """Classify a quantum scenario: a state plus commuting projective contexts.

    One `quantum_pass` checks the state and contexts and computes every
    product projector, atom and Born probability, and the atoms are made
    exact once, for both verdicts (`QuantumPass.exact_atoms`): exact Born
    values where every atom is a Gaussian-rational matrix, as Pauli
    products are, else rounded floats.  The assignment verdict is the
    global-section verdict of the model whose entries are those exact
    atoms; where it is not exactly consistent (rounded atoms, and a
    marginal summing different atoms, as in a Peres-Mermin square turned
    to an irrational basis) the section solver rationalizes the float Born
    tables instead (`QuantumPass.section_model`).  A "no" propagates down to
    the ontic-expansion verdict before any embedding runs; only when a
    global assignment may exist is the sharp GPT built and its induced
    model, from the same exact atoms, tested for a simplex embedding.  Bell
    is not applicable: the input declares no party split.
    """
    qp = quantum_pass([state], contexts, sharing)
    model = qp.section_model()
    exact = qp.exact_atoms()
    certificates: list = []
    notes: list = ["quantum scenario declares no party split; Bell verdict "
                   "not applicable"]

    try:
        section = solve_global_section(model)
        ks = YES if section.feasible else NO
        certificates.append({"role": "ks", **section.certificate()})
    except TooLargeError as exc:
        ks = UNDECIDED
        notes.append(f"global-section solver skipped: {exc}")

    if ks == NO:
        sp = NO
        certificates.append({"role": "spekkens",
                             "kind": "implied-by-ks-contextuality"})
        notes.append("ontic-expansion verdict inferred: no global assignment "
                     "exists, so no noncontextual expansion exists")
    else:
        try:
            result = embed_sharp(gpt_from_pass(qp), [exact])
        except TooLargeError as exc:
            sp = UNDECIDED
            notes.append("embedding constructor skipped: the sharp effect "
                         f"algebra's global section is too large: {exc}")
        except GptError as exc:
            sp = UNDECIDED
            notes.append(f"embedding route unavailable: {exc}")
        else:
            sp = _EMBED_VERDICT[result.verdict]
            if result.note is None:
                certificates.append({"role": "spekkens", **result.certificate()})
            else:
                notes.append(f"embedding route unavailable: {result.note}")
    return assemble_report(NOT_APPLICABLE, ks, sp, certificates, notes)


def classify_gpt(gpt: Gpt) -> ClassificationReport:
    """Classify a generalized probabilistic theory.

    With declared sharp contexts both verdicts come from one
    `embed_sharp` call, which solves every state's exact induced model and
    stops at the first state without a global section.  On sharp theories
    a simplex embedding exists exactly when every state has one, so a
    refusal is an assignment "no" inferred down to the ontic-expansion
    verdict.  When every section is feasible the assignment verdict is
    "yes", and the ontic-expansion verdict is the constructor's: "yes" with
    the 0/1 responses and exact state weights it read off the sections, or
    undecided with its note when an effect lies outside the sharp contexts
    or those weights or responses fail a span test, so that no linear map
    prints them.  Sections too large to solve leave both verdicts
    undecided.
    Without sharp contexts there is no outcome scenario to test, so the
    assignment verdict stays undecided, and the ontic-expansion verdict is
    `embed_lp`'s: "yes" or "no" with its re-checked certificate, or
    undecided with a note when the GPT does not rationalize or the LP
    exceeds its column cap.
    """
    certificates: list = []
    notes: list = []

    if gpt.sharp_contexts:
        try:
            result = embed_sharp(gpt)
        except (TooLargeError, UnsharpEffectFlagged) as exc:
            ks = sp = UNDECIDED
            notes += [f"global-section route unavailable: {exc}",
                      "embedding constructor skipped: it reads the unsolved "
                      "global sections"]
        else:
            if result.verdict == "refused":
                ks = sp = NO
                certificates.append({"role": "ks", **result.certificate()})
                certificates.append({"role": "spekkens",
                                     "kind": "implied-by-ks-contextuality"})
                notes.append("ontic-expansion verdict inferred: an induced "
                             "model has no global assignment, so no "
                             "noncontextual expansion exists")
            else:
                ks = YES
                sp = _EMBED_VERDICT[result.verdict]
                notes.append(f"all {gpt.n_states} induced models admit "
                             "global assignments")
                if result.note is None:
                    certificates.append({"role": "spekkens",
                                         **result.certificate()})
                else:
                    notes.append("embedding constructor unavailable: "
                                 f"{result.note}")
    else:
        ks = UNDECIDED
        notes.append("no sharp contexts declared; no outcome scenario for "
                     "the assignment verdict")
        try:
            result = embed_lp(gpt)
        except TooLargeError as exc:
            sp = UNDECIDED
            notes.append(f"embedding LP skipped: {exc}")
        else:
            sp = _EMBED_VERDICT[result.verdict]
            if result.note is None:
                certificates.append({"role": "spekkens", **result.certificate()})
            else:
                notes.append(f"embedding LP unavailable: {result.note}")
    return assemble_report(NOT_APPLICABLE, ks, sp, certificates, notes)


def classify_prep_ensemble(problem: PrepEnsembleProblem) -> ClassificationReport:
    """Classify a qubit preparation ensemble via the exact case analysis.

    An infeasible case analysis certifies preparation contextuality
    (ontic-expansion verdict "no"); a feasible analysis upgrades to "yes"
    only when there is one decomposition, whose components are then each
    their own ontic state.  Measurement-side verdicts do not apply: the
    input declares no measurement contexts.
    """
    result = prep_nc_check(problem)
    certificates = [{"role": "spekkens", **result.certificate()}]
    notes = ["preparation ensemble declares no measurement contexts; "
             "assignment verdict undecided, Bell not applicable"]
    if not result.feasible:
        sp = NO
    elif len(problem.decompositions) == 1:
        sp = YES
        notes.append("one decomposition: each component is its own ontic "
                     "state")
    else:
        sp = UNDECIDED
        notes.append("case analysis found no obstruction, but no ontic "
                     "model was materialized; verdict stays undecided")
    return assemble_report(NOT_APPLICABLE, UNDECIDED, sp, certificates, notes)


# ---------------------------------------------------------------------------
# Document parsing
# ---------------------------------------------------------------------------

class ParsedInput(Record):
    """One parsed classifier input document."""

    kind: str
    model: EmpiricalModel | None = None
    state: np.ndarray | None = None
    contexts: tuple | None = None
    sharing: dict | None = None
    gpt: Gpt | None = None
    problem: PrepEnsembleProblem | None = None
    attachment: PrepEnsembleProblem | None = None
    claims: dict = Fresh(dict)


def _exact_fraction(value, name: str) -> Fraction:
    if isinstance(value, float):
        raise SchemaError(f"{name} must be exact: an integer or an 'a/b' "
                          f"string, got {value!r}")
    return rational_literal(value, f"rational literal for {name}")


def prep_ensemble_from_json(doc: dict) -> PrepEnsembleProblem:
    """Parse `{"r", "axis"?, "q"?}` into a verified preparation ensemble."""
    if not isinstance(doc, dict):
        raise SchemaError("preparation ensemble must be a JSON object")
    if "r" not in doc:
        raise SchemaError("preparation ensemble needs field 'r'")
    r = _exact_fraction(doc["r"], "r")
    q = _exact_fraction(doc["q"], "q") if doc.get("q") is not None else None
    axis = doc.get("axis", (0.0, 0.0, 1.0))
    if not isinstance(axis, (list, tuple)) or len(axis) != 3:
        raise SchemaError("axis must be a list of three numbers")
    try:
        return qubit_prep_ensemble(r, axis=tuple(float(a) for a in axis), q=q)
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc


def _quantum_from_json(doc: dict):
    try:
        state = matrix_from_json(doc["state"])
        raw_contexts = doc["contexts"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"quantum input needs 'state' and 'contexts': {exc}") from exc
    # A measurement repeated with identical JSON is parsed and checked once,
    # and every context holding it shares the one object.
    parsed: list = []
    contexts = []
    try:
        for raw_ctx in raw_contexts:
            members = []
            for raw_pc in raw_ctx:
                known = next((pc for raw, pc in parsed if raw == raw_pc), None)
                if known is not None:
                    members.append(known)
                    continue
                if not isinstance(raw_pc["label"], str):
                    raise SchemaError(f"measurement label {raw_pc['label']!r} "
                                      "is not a string")
                outcomes = raw_pc.get("outcomes")
                what = f"outcomes of measurement {raw_pc['label']!r}"
                if outcomes is not None and any(
                        isinstance(o, (list, dict)) for o in json_list(outcomes, what)):
                    raise SchemaError(f"{what} must be numbers or strings, got {outcomes!r}")
                projs = [matrix_from_json(p) for p in raw_pc["projectors"]]
                members.append(projective_context(raw_pc["label"], projs,
                                                  outcomes=outcomes))
                parsed.append((raw_pc, members[-1]))
            contexts.append(members)
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed projective context: {exc}") from exc
    except QuantumInputError as exc:
        raise SchemaError(str(exc)) from exc
    sharing = doc.get("sharing")
    if sharing is not None and not (isinstance(sharing, dict) and all(
            isinstance(v, str) for v in sharing.values())):
        raise SchemaError("sharing must map measurement labels to labels")
    return state, tuple(contexts), sharing


def parse_document(doc) -> ParsedInput:
    """Parse one classifier input document, validating its schema."""
    if not isinstance(doc, dict):
        raise SchemaError("input document must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown input kind {kind!r}; expected one of {KINDS}")
    claims = doc.get("claims", {})
    if not isinstance(claims, dict):
        raise SchemaError("claims must be a JSON object")
    attachment = None
    if "prep_ensemble" in doc:
        if kind == "prep-ensemble":
            raise SchemaError("a prep-ensemble input cannot carry a "
                              "prep_ensemble attachment")
        attachment = prep_ensemble_from_json(doc["prep_ensemble"])
    if kind == "empirical":
        if "model" not in doc:
            raise SchemaError("empirical input needs a 'model' field")
        return ParsedInput(kind=kind, model=model_from_json(doc["model"]),
                           attachment=attachment, claims=claims)
    if kind == "quantum":
        state, contexts, sharing = _quantum_from_json(doc)
        return ParsedInput(kind=kind, state=state, contexts=contexts,
                           sharing=sharing, attachment=attachment, claims=claims)
    if kind == "gpt":
        if "gpt" not in doc:
            raise SchemaError("gpt input needs a 'gpt' field")
        return ParsedInput(kind=kind, gpt=gpt_from_json(doc["gpt"]),
                           attachment=attachment, claims=claims)
    return ParsedInput(kind=kind, problem=prep_ensemble_from_json(doc),
                       claims=claims)


def _apply_attachment(report: ClassificationReport,
                      problem: PrepEnsembleProblem) -> tuple:
    """Fold an attached preparation ensemble into (sp, certificates, notes).

    Only contextuality transfers: an infeasible attached ensemble witnesses
    contextuality of the whole scenario, while a feasible one certifies
    nothing beyond itself and leaves the main verdict alone.
    """
    result = prep_nc_check(problem)
    cert = {"role": "spekkens", "scope": "attached-preparation-ensemble",
            **result.certificate()}
    if not result.feasible:
        sp = NO
        note = ("attached preparation ensemble is contextual; "
                "ontic-expansion verdict set to no")
    else:
        sp = report.spekkens_noncontextual
        note = ("attached preparation ensemble shows no obstruction; "
                "main verdict unchanged")
    return sp, report.certificates + (cert,), report.notes + (note,)


def classify(doc: dict, config: RunConfig | None = None) -> ClassificationReport:
    """Classify one input document (see `parse_document` for the schemas).

    Routes per declared kind, folds in an optional attached preparation
    ensemble and user claims, and asserts the implication lattice on the
    final report.
    """
    config = config or RunConfig()
    parsed = parse_document(doc)
    if config.kind is not None and config.kind != parsed.kind:
        raise SchemaError(f"input kind {parsed.kind!r} does not match "
                          f"configured kind {config.kind!r}")
    if parsed.kind == "empirical":
        report = classify_model(parsed.model)
    elif parsed.kind == "quantum":
        report = classify_quantum(parsed.state, parsed.contexts, sharing=parsed.sharing)
    elif parsed.kind == "gpt":
        report = classify_gpt(parsed.gpt)
    else:
        report = classify_prep_ensemble(parsed.problem)

    sp = report.spekkens_noncontextual
    certificates = report.certificates
    notes = report.notes
    if parsed.attachment is not None:
        sp, certificates, notes = _apply_attachment(report, parsed.attachment)
    return assemble_report(report.bell_local, report.ks_noncontextual, sp,
                           certificates, notes, claims=parsed.claims)


def report_to_json(report: ClassificationReport,
                   include_certificates: bool = True) -> dict:
    """JSON-ready report document; certificates shrink to summaries if asked."""
    doc: dict = {
        "bell_local": report.bell_local,
        "ks_noncontextual": report.ks_noncontextual,
        "spekkens_noncontextual": report.spekkens_noncontextual,
        "hierarchy_level": report.hierarchy_level,
        "notes": list(report.notes),
    }
    if report.claims:
        doc["claims"] = dict(report.claims)
        doc["claim_check"] = report.claim_check
    doc["certificates"] = certificates_to_json(report.certificates,
                                               include_certificates)
    return doc


def certificates_to_json(certificates, include_certificates: bool = True) -> list:
    """Certificate payloads, or their role, kind, verdict and scope if asked."""
    if include_certificates:
        return [dict(c) for c in certificates]
    return [{k: c[k] for k in ("role", "kind", "verdict", "scope") if k in c}
            for c in certificates]
