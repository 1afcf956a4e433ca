"""Command-line front door.

Exit codes: 0 means completed with everything checked passing; 1 means
completed but violations or findings were reported (on stdout as JSON);
2 means usage or input error (one-line diagnostic on stderr); 3 means an
internal consistency failure, which is an implementation bug and never a
finding (one-line "internal consistency failure:" diagnostic on stderr).

All randomness flows through seed flags, reports carry no clocks or machine
state, and JSON is emitted with sorted keys, so identical invocations print
identical bytes. Every report includes the reading conventions in force
(the non-strict subset in the full-specification definition, the zero-
probability screener mode, the relevance form).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import theorems as theorem_suites
from .errors import InternalConsistencyError, LabError
from .hunter import FILTERS, SearchConfig, hunt
from .measure import find_ccs, is_ccs, is_common_cause
from .modelio import (
    causet_from_data,
    causet_to_data,
    dom_from_data,
    load_json_file,
    load_model,
    measure_from_data,
    parse_event,
    parse_region,
    space_from_data,
)
from .principles import (
    PRINCIPLES,
    Caps,
    check_principle,
    gap_closure_check,
    implication_matrix,
    replicate_so1_to_so2,
)


def _conventions(zero_mode: str = "vacuous", relevance: str = "printed") -> dict:
    return {
        "full_specification_subset": "non-strict (dom(F) subseteq R)",
        "zero_probability_screeners": zero_mode,
        "relevance_form": relevance,
    }


def _emit(data: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        print(json.dumps(data, sort_keys=True, separators=(",", ":")))


def _add_common(parser: argparse.ArgumentParser, model: bool = True) -> None:
    if model:
        parser.add_argument("--model", required=True, help="model or causet JSON file")
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causetlab",
        description="finite-model laboratory for screening-off causality principles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a causet/model file")
    _add_common(p)

    p = sub.add_parser("regions", help="region algebra for one or two regions")
    _add_common(p)
    p.add_argument("--a", required=True, help="region as comma-separated labels ('' = empty)")
    p.add_argument("--b", help="second region; enables the pair operations")

    p = sub.add_parser("fullspec", help="full specifications of a region")
    _add_common(p)
    p.add_argument("--region", required=True, help="region as comma-separated labels")

    p = sub.add_parser("dom-axioms", help="validate the dom axioms on a model")
    _add_common(p)
    p.add_argument("--family-size", type=int, default=3)
    p.add_argument("--events", type=int, help="sample this many events instead of exhausting")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("ccs", help="common cause / common cause system checks")
    _add_common(p)
    p.add_argument("--a", required=True, help="event (JSON: history list or cylinder object)")
    p.add_argument("--b", required=True, help="event")
    p.add_argument("--c", help="candidate common cause event")
    p.add_argument("--partition", help="JSON list of events forming a partition")
    p.add_argument("--find", action="store_true", help="search for qualifying partitions")
    p.add_argument("--max-size", type=int, default=2)
    p.add_argument("--mode", choices=("all", "regions"), default="all")
    p.add_argument("--relevance", choices=("printed", "conditional"), default="printed")
    p.add_argument("--zero-screener", choices=("vacuous", "strict"), default="vacuous")

    p = sub.add_parser("check", help="check a causality principle on a model")
    _add_common(p)
    p.add_argument("--principle", default="all", choices=PRINCIPLES + ("all",))
    p.add_argument("--caps", default="", help="region=K,algebra=M")
    p.add_argument("--zero-screener", choices=("vacuous", "strict"), default="vacuous")
    p.add_argument("--force", action="store_true", help="check even if dom axioms fail")

    p = sub.add_parser("replicate", help="replicate the SO1=>SO2 derivation steps")
    _add_common(p)
    p.add_argument("--a", help="first region (default: sweep all spacelike pairs)")
    p.add_argument("--b", help="second region")
    p.add_argument("--caps", default="")

    p = sub.add_parser("gap", help="compare composed screeners against Phi(P2)")
    _add_common(p)
    p.add_argument("--a", help="first region (default: sweep all spacelike pairs)")
    p.add_argument("--b", help="second region")
    p.add_argument("--caps", default="")

    p = sub.add_parser("hunt", help="search small models for principle separations")
    _add_common(p, model=False)
    p.add_argument("--max-elements", type=int, required=True)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--measures", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--denominator-bound", type=int, default=100)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--caps", default="")
    p.add_argument("--filters", default="", help=f"comma list from: {', '.join(FILTERS)}")
    p.add_argument("--include-perfect", action="store_true",
                   help="also try the perfectly-correlated measure on every causet")
    p.add_argument("--zero-screener", choices=("vacuous", "strict"), default="vacuous")
    p.add_argument("--checkpoint", help="write progress to this file")
    p.add_argument("--resume", action="store_true", help="continue from the checkpoint")

    p = sub.add_parser("theorems", help="run the provable-step suites")
    _add_common(p, model=False)
    p.add_argument("--max-elements", type=int, default=4)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--max-product-elements", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--caps", default="")

    return parser


def cmd_validate(args) -> int:
    data = load_json_file(args.model)
    causet = causet_from_data(data)
    # a model's alphabet, dom and measure are parsed as `check` parses them;
    # the dom axioms are left to `dom-axioms`, and a bare causet builds no
    # history space
    if data.keys() & {"alphabet", "dom", "measure"}:
        space = space_from_data(data)
        dom_from_data(space, data.get("dom"))
        measure_from_data(space, data.get("measure"))
    _emit({"ok": True, "causet": causet_to_data(causet)}, args.pretty)
    return 0


def cmd_regions(args) -> int:
    # region algebra never touches the history space; accept causets too
    # large to ever build a model over
    causet = causet_from_data(load_json_file(args.model))
    ra = parse_region(causet, args.a)
    out = {
        "conventions": _conventions(),
        "a": list(causet.labels(ra)),
        "past_a": list(causet.labels(causet.past(ra))),
        "complement_a": list(causet.labels(causet.causal_complement(ra))),
        "closure_a": list(causet.labels(causet.causal_closure(ra))),
        "causally_finite_a": causet.is_causally_finite(ra),
    }
    exit_code = 0
    if args.b is not None:
        rb = parse_region(causet, args.b)
        out.update({
            "b": list(causet.labels(rb)),
            "past_b": list(causet.labels(causet.past(rb))),
            "complement_b": list(causet.labels(causet.causal_complement(rb))),
            "closure_b": list(causet.labels(causet.causal_closure(rb))),
            "causally_finite_b": causet.is_causally_finite(rb),
            "spacelike": causet.is_spacelike(ra, rb),
            "mutual_past": list(causet.labels(causet.mutual_past(ra, rb))),
            "truncated_joint_past": list(causet.labels(causet.truncated_joint_past(ra, rb))),
        })
        x, y = causet.flank_regions(ra, rb)
        out["flank_x"] = list(causet.labels(x))
        out["flank_y"] = list(causet.labels(y))
        if out["spacelike"]:
            report = causet.verify_crucial_identity(ra, rb)
            out["crucial_identity"] = report.to_json(causet)
            if not report.holds:
                exit_code = 1
        else:
            out["crucial_identity"] = None
    _emit(out, args.pretty)
    return exit_code


def cmd_fullspec(args) -> int:
    from .histories import full_specifications, is_partition

    model = load_model(args.model)
    region = parse_region(model.causet, args.region)
    cells = full_specifications(model.space, model.dom, region)
    partition = is_partition(model.space, cells)
    _emit({
        "conventions": _conventions(),
        "region": list(model.causet.labels(region)),
        "count": len(cells),
        "cells": [model.space.event_keys(c) for c in cells],
        "partition_of_omega": partition,
    }, args.pretty)
    return 0 if partition else 1


def cmd_dom_axioms(args) -> int:
    from .histories import check_dom_axioms, sample_events

    # an empty sample would pass every axiom vacuously
    if args.events is not None and args.events < 1:
        raise LabError(f"cannot sample {args.events} distinct events: --events must be at least 1")
    # not load_model: building a Model sweeps an explicit map exhaustively
    # before the check asked for here, whatever --events says
    data = load_json_file(args.model)
    space = space_from_data(data)
    dom = dom_from_data(space, data.get("dom"))
    measure_from_data(space, data.get("measure"))  # a malformed file is still refused
    universe = None
    if args.events is not None:
        # an explicit map is defined on its own universe only
        defined = None if dom.is_canonical else list(dom.events(space))
        universe = sample_events(space, args.events, args.seed, defined)
    report = check_dom_axioms(space, dom, args.family_size, universe)
    _emit({
        "conventions": _conventions(),
        "report": report.to_json(space),
    }, args.pretty)
    return 0 if report.passed else 1


def cmd_ccs(args) -> int:
    model = load_model(args.model)
    m = model.measure
    a = parse_event(model.space, args.a)
    b = parse_event(model.space, args.b)
    out: dict = {"conventions": _conventions(args.zero_screener, args.relevance)}
    if args.c is not None:
        verdict = is_common_cause(
            m, a, b, parse_event(model.space, args.c), args.relevance, args.zero_screener
        )
        out["common_cause"] = verdict.to_json()
        ok = verdict.qualifies
    elif args.partition is not None:
        specs = json.loads(args.partition)
        if not isinstance(specs, list):
            raise LabError(f"--partition must be a JSON list of events, got {args.partition!r}")
        cells = [parse_event(model.space, spec) for spec in specs]
        verdict = is_ccs(m, a, b, cells, args.zero_screener)
        out["ccs"] = verdict.to_json()
        ok = verdict.qualifies
    elif args.find:
        found = find_ccs(m, a, b, args.max_size, mode=args.mode, dom=model.dom,
                         zero_mode=args.zero_screener)
        out["found"] = [
            [model.space.event_keys(c) for c in partition] for partition in found
        ]
        ok = bool(found)
    else:
        raise LabError("ccs needs --c, --partition or --find")
    _emit(out, args.pretty)
    return 0 if ok else 1


def cmd_check(args) -> int:
    model = load_model(args.model, force=args.force)
    caps = Caps.parse(args.caps)
    out: dict = {"conventions": _conventions(args.zero_screener), "caps": caps.to_json()}
    if args.principle == "all":
        matrix = implication_matrix(model, caps, args.zero_screener)
        out["matrix"] = matrix.to_json(model)
        ok = all(matrix.satisfied(p) for p in PRINCIPLES)
    else:
        verdict = check_principle(model, args.principle, caps, args.zero_screener)
        out["verdict"] = verdict.to_json(model)
        ok = verdict.satisfied
    _emit(out, args.pretty)
    return 0 if ok else 1


def _pair_sweep(args, model, caps):
    causet = model.causet
    if (args.a is None) != (args.b is None):
        raise LabError("give both --a and --b, or neither for a sweep")
    if args.a is not None:
        yield parse_region(causet, args.a), parse_region(causet, args.b)
    else:
        yield from causet.spacelike_pairs(max_size=caps.region_size)


def cmd_replicate(args) -> int:
    model = load_model(args.model)
    caps = Caps.parse(args.caps)
    reports = [
        replicate_so1_to_so2(model, ra, rb, caps).to_json(model)
        for ra, rb in _pair_sweep(args, model, caps)
    ]
    failed = [r for r in reports if r["applicable"] and not r["passed"]]
    _emit({
        "conventions": _conventions(),
        "pairs": reports,
        "passed": not failed,
    }, args.pretty)
    return 0 if not failed else 1


def cmd_gap(args) -> int:
    model = load_model(args.model)
    caps = Caps.parse(args.caps)
    reports = [
        gap_closure_check(model, ra, rb).to_json(model)
        for ra, rb in _pair_sweep(args, model, caps)
    ]
    mismatches = [r for r in reports if not r["equal"]]
    _emit({
        "conventions": _conventions(),
        "pairs": reports,
        "all_equal": not mismatches,
    }, args.pretty)
    return 0 if not mismatches else 1


def cmd_hunt(args) -> int:
    config = SearchConfig(
        max_elements=args.max_elements,
        alphabet_size=args.alphabet,
        measures_per_model=args.measures,
        seed=args.seed,
        denominator_bound=args.denominator_bound,
        caps=Caps.parse(args.caps),
        workers=args.workers,
        filters=tuple(f for f in args.filters.split(",") if f),
        include_perfect=args.include_perfect,
        zero_mode=args.zero_screener,
    )
    report = hunt(config, checkpoint_path=args.checkpoint, resume=args.resume)
    if args.pretty:
        _emit(report.to_json(), True)
    else:
        for finding in report.findings:
            print(json.dumps(finding, sort_keys=True, separators=(",", ":")))
        print(json.dumps({"summary": report.summary_json()},
                         sort_keys=True, separators=(",", ":")))
    return 1 if report.findings_total else 0


def cmd_theorems(args) -> int:
    result = theorem_suites.run_all(
        max_elements=args.max_elements,
        alphabet=args.alphabet,
        max_product_elements=args.max_product_elements,
        seed=args.seed,
        caps=Caps.parse(args.caps),
    )
    result["conventions"] = _conventions()
    _emit(result, args.pretty)
    return 0 if result["passed"] else 1


_COMMANDS = {
    "validate": cmd_validate,
    "regions": cmd_regions,
    "fullspec": cmd_fullspec,
    "dom-axioms": cmd_dom_axioms,
    "ccs": cmd_ccs,
    "check": cmd_check,
    "replicate": cmd_replicate,
    "gap": cmd_gap,
    "hunt": cmd_hunt,
    "theorems": cmd_theorems,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except InternalConsistencyError as exc:
        print(f"causetlab {args.command}: internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except (LabError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"causetlab {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
