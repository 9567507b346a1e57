"""Command-line surface: classify inputs and run the named scenario checks.

Every subcommand accepts `--seed`, `--out`, and `--format json|text`, and
report-producing subcommands add `--emit-certificate` to include full
certificate payloads instead of compact summaries.  Output is rendered
with sorted keys, so identical inputs and seeds give byte-identical
reports.  Exit codes: 0 when the run classified or reported, 2 on schema
or input errors, 3 on an internal lattice violation or a failed internal
certificate check (bug sentinels that should never fire).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .classify import (
    LatticeViolation,
    RunConfig,
    certificates_to_json,
    classify,
    parse_document,
    prep_ensemble_from_json,
    report_to_json,
)
from .embedding import (
    embed_lp,
    embed_sharp,
    gpt_from_json,
    prep_nc_check,
    pusey_incomplete_check,
    six_ensemble_statistics,
)
from .polytope import (
    CHSH_LOCAL_BOUND,
    CHSH_OPTIMAL_ANGLES,
    chsh_value,
    contextuality_to_bell,
    csw_inequality,
    kcbs_graph,
    make_orthogonality_graph,
    membership_lp,
    singlet_behaviour,
)
from .qsl import QslProgram, qsl_compare
from .quantum import (
    KCBS_NONCONTEXTUAL_BOUND,
    PM_LABELS,
    kcbs_construction,
    matrix_from_json,
    peres_mermin_square,
    projective_context,
    pvm_from_observable,
    random_density,
    sup_norm,
)
from .scenario import (
    SchemaError,
    from_quantum,
    quantum_pass,
    rational_literal,
    validate_no_disturbance,
)
from .sheaf import solve_global_section

_encode_str = json.encoder.encode_basestring_ascii


def _json_text(value, pad: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` of a JSON value.

    An ``indent`` sends `json.dumps` to its pure-Python encoder; this one
    recursive pass writes the same bytes, encoding strings, the most common
    values, without a call of its own.  ``pad`` is the newline and
    indentation that close the enclosing container.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        body = ("," + inner).join([
            f"{_encode_str(k)}: "
            f"{_encode_str(v) if type(v) is str else _json_text(v, inner)}"
            for k, v in sorted(value.items())])
        return "{" + inner + body + pad + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = pad + "  "
        body = ("," + inner).join([_encode_str(x) if type(x) is str else _json_text(x, inner)
                                   for x in value])
        return "[" + inner + body + pad + "]"
    if kind is int:
        return int.__repr__(value)
    if kind is float and value - value == 0:
        return float.__repr__(value)
    return json.dumps(value)


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key in sorted(value):
            inner = value[key]
            if isinstance(inner, (dict, list)) and inner:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(inner, indent + 1))
            else:
                lines.append(f"{pad}{key}: {inner}")
    elif isinstance(value, list):
        for inner in value:
            if isinstance(inner, (dict, list)) and inner:
                lines.append(f"{pad}-")
                lines.extend(_render_text(inner, indent + 1))
            else:
                lines.append(f"{pad}- {inner}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        text = _json_text(payload) + "\n"
    else:
        text = "\n".join(_render_text(payload)) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    elif hasattr(sys.stdout, "buffer"):
        # UTF-8 whatever the locale's encoding, as `--out` writes it.
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
        sys.stdout.buffer.flush()
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    """The JSON document at ``path``, decoded from UTF-8, -16 or -32 as `json.loads` detects.

    The bytes are read whatever the locale's encoding (RFC 8259).
    """
    try:
        return json.loads(Path(path).read_bytes())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path} is nested too deeply") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> dict:
    parsed = parse_document(_load_json(args.input))
    payload: dict = {"kind": parsed.kind, "valid": True}
    if parsed.kind == "empirical":
        nd = validate_no_disturbance(parsed.model)
        payload["measurements"] = len(parsed.model.scenario.measurements)
        payload["contexts"] = len(parsed.model.scenario.contexts)
        payload["no_disturbance"] = nd.passed
        payload["worst_marginal_deviation"] = nd.worst_violation
        if not nd.passed:
            payload["valid"] = False
    elif parsed.kind == "quantum":
        model = from_quantum(parsed.state, parsed.contexts, parsed.sharing)
        payload["hilbert_dim"] = int(parsed.state.shape[0])
        payload["measurements"] = len(model.scenario.measurements)
        payload["contexts"] = len(model.scenario.contexts)
    elif parsed.kind == "gpt":
        payload["dim"] = parsed.gpt.dim
        payload["states"] = parsed.gpt.n_states
        payload["effects"] = parsed.gpt.n_effects
        payload["sharp_contexts"] = len(parsed.gpt.sharp_contexts)
    else:
        payload["components"] = len(parsed.problem.component_states)
        payload["decompositions"] = len(parsed.problem.decompositions)
    if parsed.attachment is not None:
        payload["prep_ensemble_attached"] = True
    return payload


def cmd_classify(args) -> dict:
    doc = _load_json(args.input)
    config = RunConfig(kind=args.kind, seed=args.seed)
    report = classify(doc, config)
    payload = report_to_json(report,
                             include_certificates=args.emit_certificate)
    payload["kind"] = doc.get("kind")
    payload["seed"] = args.seed
    return payload


def cmd_kcbs(args) -> dict:
    psi, observables, total = kcbs_construction()
    contexts = []
    for j in range(5):
        k = (j + 1) % 5
        contexts.append([pvm_from_observable(observables[j], f"A{j}"),
                         pvm_from_observable(observables[k], f"A{k}")])
    section = solve_global_section(quantum_pass([psi], contexts).section_model())
    csw = csw_inequality(kcbs_graph(), state=psi)
    return {
        "correlator_sum": total,
        "noncontextual_bound": KCBS_NONCONTEXTUAL_BOUND,
        "global_section": section.verdict,
        "csw_lhs": csw.lhs,
        "csw_bound": str(csw.bound),
        "csw_violated": csw.violated,
        "seed": args.seed,
        "certificates": certificates_to_json([section.certificate()],
                                             args.emit_certificate),
    }


def cmd_chsh(args) -> dict:
    if args.angles:
        try:
            angles = tuple(float(t) for t in args.angles.split(","))
        except ValueError as exc:
            raise SchemaError(f"bad --angles value {args.angles!r}") from exc
        if len(angles) != 4:
            raise SchemaError("--angles needs four comma-separated numbers")
    else:
        angles = CHSH_OPTIMAL_ANGLES
    model = singlet_behaviour(angles, alpha=args.alpha)
    membership = membership_lp(model)
    return {
        "alpha": args.alpha,
        "angles": list(angles),
        "chsh_value": float(chsh_value(model)),
        "local_bound": CHSH_LOCAL_BOUND,
        "membership": membership.verdict,
        "seed": args.seed,
        "certificates": certificates_to_json([membership.certificate()],
                                             args.emit_certificate),
    }


def _pm_contexts(grid) -> list:
    """The square's rows, then its columns, each observable P measured once.

    P squares to the identity, so its projectors for outcomes -1 and 1 are
    (I - P)/2 and (I + P)/2, exact in floats.
    """
    eye = np.eye(4)
    rows = [[projective_context(label, [(eye - p) / 2, (eye + p) / 2], [-1, 1])
             for p, label in zip(row, labels)]
            for row, labels in zip(grid, PM_LABELS)]
    return rows + [list(column) for column in zip(*rows)]


def _pm_signs(grid) -> tuple[list[int], list[int]]:
    eye = np.eye(4)

    def sign(product: np.ndarray) -> int:
        if sup_norm(product - eye) < 1e-9:
            return 1
        if sup_norm(product + eye) < 1e-9:
            return -1
        raise AssertionError("context product is not +/- identity")

    rows = [sign(grid[i][0] @ grid[i][1] @ grid[i][2]) for i in range(3)]
    cols = [sign(grid[0][j] @ grid[1][j] @ grid[2][j]) for j in range(3)]
    return rows, cols


def _pm_assignment_count(rows: list[int], cols: list[int]) -> int:
    """How many of the 512 +/-1 fillings of the square give every row and column its sign."""
    grids = np.array(list(itertools.product((1, -1), repeat=9))).reshape(-1, 3, 3)
    ok = ((grids.prod(axis=2) == rows).all(axis=1)
          & (grids.prod(axis=1) == cols).all(axis=1))
    return int(ok.sum())


def cmd_pm_square(args) -> dict:
    if args.trials < 0:
        raise ValueError(f"trials must be a nonnegative integer, got {args.trials}")
    grid = peres_mermin_square()
    rows, cols = _pm_signs(grid)
    satisfying = _pm_assignment_count(rows, cols)
    contexts = _pm_contexts(grid)
    rng = np.random.default_rng(args.seed)
    verdicts = []
    certs = []
    for _ in range(args.trials):
        section = solve_global_section(
            quantum_pass([random_density(4, rng)], contexts).section_model())
        verdicts.append(section.verdict)
        certs.append(section.certificate())
    return {
        "row_signs": rows,
        "column_signs": cols,
        "satisfying_assignments": satisfying,
        "total_assignments": 512,
        "global_section_verdicts": verdicts,
        "trials": args.trials,
        "seed": args.seed,
        "certificates": certificates_to_json(certs, args.emit_certificate),
    }


def cmd_embed(args) -> dict:
    doc = _load_json(args.input)
    gpt = (parse_document(doc).gpt if isinstance(doc, dict) and "kind" in doc
           else gpt_from_json(doc))
    if gpt is None:
        raise SchemaError(f"embed needs a gpt document, got kind {doc['kind']!r}")
    payload: dict = {"dim": gpt.dim, "states": gpt.n_states,
                     "effects": gpt.n_effects, "seed": args.seed}
    if gpt.sharp_contexts:
        result = embed_sharp(gpt)
        payload["route"] = "sharp-constructor"
    else:
        result = embed_lp(gpt)
        payload["route"] = "embedding-lp"
    payload["verdict"] = result.verdict
    if result.note is not None:
        payload["note"] = result.note
        payload["certificates"] = []
        return payload
    payload["certificates"] = certificates_to_json([result.certificate()],
                                                   args.emit_certificate)
    return payload


def cmd_prep_nc(args) -> dict:
    if args.input:
        problem = prep_ensemble_from_json(_load_json(args.input))
    elif args.r is not None:
        doc: dict = {"r": args.r}
        if args.axis:
            try:
                doc["axis"] = [float(t) for t in args.axis.split(",")]
            except ValueError as exc:
                raise SchemaError(f"bad --axis value {args.axis!r}") from exc
        if args.q is not None:
            doc["q"] = args.q
        problem = prep_ensemble_from_json(doc)
    else:
        raise SchemaError("prep-nc needs an input file or --r")
    result = prep_nc_check(problem)
    return {
        "verdict": result.verdict,
        "cases": len(result.cases),
        "infeasible_cases": sum(1 for c in result.cases if not c.feasible),
        "model_constructed": (result.feasible
                              and len(problem.decompositions) == 1),
        "seed": args.seed,
        "certificates": certificates_to_json([result.certificate()],
                                             args.emit_certificate),
    }


def _pusey_stats_from_json(doc: dict):
    if not isinstance(doc, dict) or not isinstance(doc.get("preps"), dict):
        raise SchemaError("pusey input needs a 'preps' object")
    stats = {}
    for label, meas in doc["preps"].items():
        if not isinstance(meas, dict):
            raise SchemaError(f"preparation {label!r} must map measurements "
                              "to outcome lists")
        converted = {}
        for m_label, values in meas.items():
            if not isinstance(values, list):
                raise SchemaError(f"outcomes for {label!r}/{m_label!r} must "
                                  "be a list")
            row = []
            for v in values:
                row.append(v if isinstance(v, float)
                           else rational_literal(v, "probability"))
            converted[m_label] = tuple(row)
        stats[label] = converted
    raw_groups = doc.get("equivalences", [])
    if not isinstance(raw_groups, list) or not all(
            isinstance(g, list) for g in raw_groups):
        raise SchemaError("'equivalences' must be a list of lists of mixtures")
    groups = []
    for raw_group in raw_groups:
        group = []
        for raw_mix in raw_group:
            if not isinstance(raw_mix, dict):
                raise SchemaError("each equivalence entry must map "
                                  "preparation labels to exact weights")
            mix = {}
            for label, w in raw_mix.items():
                mix[label] = rational_literal(w, "equivalence weight")
            group.append(mix)
        groups.append(group)
    return stats, groups or None


def cmd_pusey(args) -> dict:
    if args.six_ensemble is not None:
        r = rational_literal(args.six_ensemble, "--six-ensemble value")
        stats, group, _ = six_ensemble_statistics(r)
        equivalences = [group]
    elif args.input:
        stats, equivalences = _pusey_stats_from_json(_load_json(args.input))
    else:
        raise SchemaError("pusey needs an input file or --six-ensemble")
    result = pusey_incomplete_check(stats, declared_equivalences=equivalences)
    return {
        "verdict": result.verdict,
        "scan_contextual": result.scan_contextual,
        "equivalence_contextual": result.equivalence_contextual,
        "pairs_checked": result.pairs_checked,
        "pairs_covered": result.pairs_covered,
        "seed": args.seed,
        "certificates": certificates_to_json([result.certificate()],
                                             args.emit_certificate),
    }


def cmd_convert_bell(args) -> dict:
    if args.input:
        doc = _load_json(args.input)
        try:
            weights = {l: Fraction(w) if isinstance(w, float)
                       else rational_literal(w, "vertex weight")
                       for l, w in doc["weights"].items()}
            edges = [(a, b) for a, b in doc["edges"]]
            projectors = {l: matrix_from_json(m)
                          for l, m in doc["projectors"].items()}
            dim = int(doc["dim"])
        except (KeyError, TypeError, ValueError, AttributeError,
                ArithmeticError) as exc:
            raise SchemaError(f"malformed graph document: {exc}") from exc
        if not weights or not all(isinstance(l, str) for e in edges for l in e):
            raise SchemaError("a graph document needs vertices, and edges "
                              "between vertex labels")
        graph = make_orthogonality_graph(weights, edges, projectors=projectors)
    else:
        graph = kcbs_graph()
        dim = args.dim
    lift = contextuality_to_bell(graph, dim)
    return {
        "labels": list(lift.graph.labels),
        "dim": dim,
        "bound": str(lift.bound),
        "ld_maximum": str(lift.ld_maximum()),
        "quantum_value": lift.quantum_value,
        "violated": bool(lift.quantum_value > float(lift.bound) + 1e-12),
        "seed": args.seed,
    }


def cmd_qsl_run(args) -> dict:
    try:
        basis, value = args.prep.split(":")
        program = QslProgram(
            preparation=(basis, int(value)),
            gates=tuple(g for g in args.gates.split(",") if g),
            measurement=args.measure,
            shots=args.shots,
            seed=args.seed,
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    result = qsl_compare(program)
    return {**result,
            "freqs": {str(k): float(v) for k, v in result["freqs"].items()},
            "quantum": {str(k): v for k, v in result["quantum"].items()},
            "fidelity": float(result["fidelity"])}


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_common(parser, certificate: bool = False) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="seed recorded in the report and used by any "
                             "randomized step")
    parser.add_argument("--out", default=None,
                        help="write the report to this path instead of stdout")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    if certificate:
        parser.add_argument("--emit-certificate", action="store_true",
                            help="include full certificate payloads")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextuality",
        description="Classify physical scenarios along the classicality "
                    "hierarchy and emit machine-checkable certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and schema-check an input")
    p.add_argument("input")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="full three-verdict classification")
    p.add_argument("input")
    p.add_argument("--kind", default=None,
                   choices=("empirical", "quantum", "gpt", "prep-ensemble"))
    p.add_argument("--restarts", type=int,
                   help="accepted and ignored: the embedding of a GPT "
                        "without sharp contexts is decided by one exact LP")
    _add_common(p, certificate=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("kcbs", help="pentagon scenario on a qutrit")
    _add_common(p, certificate=True)
    p.set_defaults(func=cmd_kcbs)

    p = sub.add_parser("chsh", help="two-party correlation test")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="noise weight of the singlet component")
    p.add_argument("--angles", default=None,
                   help="four comma-separated measurement angles")
    _add_common(p, certificate=True)
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("pm-square", help="two-qubit observable grid")
    p.add_argument("--trials", type=int, default=3,
                   help="random states for the state-independence spot check")
    _add_common(p, certificate=True)
    p.set_defaults(func=cmd_pm_square)

    p = sub.add_parser("embed", help="simplex-embedding test for a GPT")
    p.add_argument("input")
    p.add_argument("--restarts", type=int,
                   help="accepted and ignored: the embedding of a GPT "
                        "without sharp contexts is decided by one exact LP")
    _add_common(p, certificate=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("prep-nc",
                       help="preparation noncontextuality case analysis")
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--r", default=None,
                   help="target polar coordinate as an exact rational")
    p.add_argument("--axis", default=None,
                   help="three comma-separated target direction components")
    p.add_argument("--q", default=None,
                   help="decomposition weight as an exact rational")
    _add_common(p, certificate=True)
    p.set_defaults(func=cmd_prep_nc)

    p = sub.add_parser("pusey",
                       help="assignment-polytope scan without tomographic "
                            "completeness")
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--six-ensemble", default=None,
                   help="run the built-in six-decomposition ensemble at "
                        "this exact r")
    _add_common(p, certificate=True)
    p.set_defaults(func=cmd_pusey)

    p = sub.add_parser("convert-bell",
                       help="lift an exclusivity inequality to a two-party "
                            "test")
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--dim", type=int, default=3,
                   help="Hilbert dimension for the built-in pentagon graph")
    _add_common(p)
    p.set_defaults(func=cmd_convert_bell)

    p = sub.add_parser("qsl", help="classical two-bit qubit simulator")
    qsl_sub = p.add_subparsers(dest="qsl_command", required=True)
    run_p = qsl_sub.add_parser("run", help="run a prepare-gate-measure "
                                           "program and compare with quantum")
    run_p.add_argument("--prep", required=True, help="basis:value, e.g. Z:0")
    run_p.add_argument("--gates", default="",
                       help="comma-separated gate list, e.g. X,X")
    run_p.add_argument("--measure", required=True, help="measurement basis")
    run_p.add_argument("--shots", type=int, default=100_000)
    _add_common(run_p)
    run_p.set_defaults(func=cmd_qsl_run)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The `build_parser()` parser, built on the first `main` call and reused.

    Each ``parse_args`` call fills a fresh namespace from the defaults, so
    no flag carries over from one call to the next.
    """
    return build_parser()


@functools.cache
def _options() -> tuple[frozenset, frozenset]:
    """The option strings that take one value, and all option strings, of every subcommand."""
    valued, options = set(), set()
    parsers = [_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            options.update(action.option_strings)
            if action.option_strings and action.nargs is None:
                valued.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return frozenset(valued), frozenset(options)


def _join_values(argv) -> list:
    """Write ``--opt value`` as ``--opt=value`` where the value starts with ``-``.

    argparse reads a value such as ``-2/5`` or ``-0.5,0,0.3,0.2`` as an
    option of its own and exits 2.  Only options that take a value are
    joined, and never to an option string, so a missing value still exits 2.
    """
    valued, options = _options()
    out: list = []
    for token in argv:
        if out and out[-1] in valued and token.startswith("-") and token not in options:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = _parser().parse_args(_join_values(sys.argv[1:] if argv is None else argv))
    try:
        _emit(args.func(args), args)
    except LatticeViolation as exc:
        print(f"internal lattice violation: {exc}", file=sys.stderr)
        return 3
    except (AssertionError, ArithmeticError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except (SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the input is nested too deeply", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
