"""Command-line entry point: semantic matching, role resolution, simulation.

Subcommands::

    fso match     --taxonomy types.txt member1.ttl member2.ttl
    fso match     --community community.json
    fso resolve   --fixture organization.json
    fso simulate  --scenario scenario.json --replicates 100 --out trace.csv

Match and resolve reports are JSON (stdout or ``--out``); simulation
traces are CSV.  Identical inputs, flags and seed produce byte-identical
outputs.  Exit codes: 0 success, 2 bad input (``OSError`` or ``InputError``),
1 internal error (a bug).  Set ``FSO_LOG`` to DEBUG or INFO for progress logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import diffusion, fractal, taxonomy
from .community import Community, MatchPolicy, load_community
from .descriptions import load_descriptions
from .inputs import InputError, reading

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2

_INPUT_ERRORS = (OSError, InputError)

logger = logging.getLogger("fso")


def _write_report(report: dict, out: str | None):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _pending_summary(community: Community) -> list[dict]:
    return [
        {
            "member": owner,
            "provide": d.provide,
            "request": d.request,
            "start_time": d.start_time.isoformat(),
            "end_time": d.end_time.isoformat(),
        }
        for owner, d in community.pending_entries()
    ]


def cmd_match(args) -> int:
    if args.community and (args.descriptions or args.taxonomy or args.allow_specialization
                           or args.no_time_overlap):
        raise InputError("--community is exclusive with description files, --taxonomy,"
                         " --allow-specialization and --no-time-overlap")
    if args.community:
        community, plan = load_community(args.community)
    else:
        tax = taxonomy.load_taxonomy(args.taxonomy) if args.taxonomy else taxonomy.Taxonomy()
        policy = MatchPolicy(allow_specialization=args.allow_specialization,
                             require_time_overlap=not args.no_time_overlap)
        community = Community(tax, policy)
        plan = []
        seen_ids: set[str] = set()
        for file_name in args.descriptions:
            member_id = Path(file_name).stem
            if member_id in seen_ids:
                member_id = file_name
            seen_ids.add(member_id)
            with reading(file_name):  # the stem may be a reserved member id
                community.register(member_id)
            plan.extend((member_id, record) for record in load_descriptions(file_name))
    events = []
    for member_id, record in plan:
        events.extend(community.publish(member_id, record))
    report = {
        "events": [event.to_json_dict() for event in events],
        "pending": _pending_summary(community),
    }
    _write_report(report, args.out)
    logger.info("match: %d events, %d pending", len(report["events"]), len(report["pending"]))
    return EXIT_OK


def cmd_resolve(args) -> int:
    org, conditions = fractal.load_fixture(args.fixture)
    results = []
    for i, cond in enumerate(conditions):
        try:
            results.append(org.resolve(cond).to_json_dict())
        except InputError as exc:  # an unknown origin, a bad preassignment
            raise InputError(f"conditions[{i}]: {exc}", args.fixture) from None
    _write_report({"results": results}, args.out)
    logger.info("resolve: %d conditions", len(results))
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario_paths = [Path(p) for p in args.scenario]
    # validate every file before running any, so a bad one writes nothing
    specs = [diffusion.load_scenario(path) for path in scenario_paths]
    multiple = len(scenario_paths) > 1
    out = Path(args.out)
    for scenario_path, spec in zip(scenario_paths, specs):
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
        result = diffusion.monte_carlo(spec, args.replicates)
        if multiple:  # only now: a rejected replicate count leaves no directory
            out.mkdir(parents=True, exist_ok=True)
        target = out / f"{scenario_path.stem}.csv" if multiple else out
        if args.replicates == 1:
            diffusion.write_trace_csv(result.traces[0], target)
        else:
            diffusion.write_aggregate_csv(result, target)
        if args.dump_replicates:
            dump_path = target.with_name(target.stem + ".replicates.csv")
            diffusion.write_replicates_csv(result, dump_path)
        print(
            f"{scenario_path.stem} ({spec.topology.value}):"
            f" final mean diffusion {result.final_mean:.6f}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fso",
        description="Semantic service matching, fractal role resolution,"
        " and knowledge-diffusion experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_match = sub.add_parser("match", help="publish descriptions and report matches")
    p_match.add_argument("descriptions", nargs="*", help="description files (one member each)")
    p_match.add_argument("--community", help="community JSON document")
    p_match.add_argument("--taxonomy", help="taxonomy file (child subClassOf parent)")
    p_match.add_argument("--allow-specialization", action="store_true")
    p_match.add_argument("--no-time-overlap", action="store_true",
                         help="match descriptions with disjoint time windows too")
    p_match.add_argument("--out", help="write the JSON report here (default stdout)")
    p_match.set_defaults(func=cmd_match)

    p_resolve = sub.add_parser("resolve", help="resolve triggering conditions in a tree")
    p_resolve.add_argument("--fixture", required=True, help="organization JSON document")
    p_resolve.add_argument("--out", help="write the JSON report here (default stdout)")
    p_resolve.set_defaults(func=cmd_resolve)

    p_sim = sub.add_parser("simulate", help="run knowledge-diffusion scenarios")
    p_sim.add_argument("--scenario", nargs="+", required=True, help="scenario JSON file(s)")
    p_sim.add_argument("--replicates", type=int, default=1)
    p_sim.add_argument("--out", required=True,
                       help="output CSV (a directory when several scenarios are given)")
    p_sim.add_argument("--dump-replicates", action="store_true",
                       help="also write a per-replicate CSV next to the output")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    level_name = os.environ.get("FSO_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level_name, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        logger.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
