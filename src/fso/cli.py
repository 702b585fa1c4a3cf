"""Command-line entry point: semantic matching, role resolution, simulation.

Subcommands::

    fso match     --taxonomy types.txt member1.ttl member2.ttl
    fso match     --community community.json
    fso resolve   --fixture organization.json
    fso simulate  --scenario scenario.json --replicates 100 --out trace.csv

Match and resolve reports are JSON (stdout or ``--out``); simulation
traces are CSV.  Identical inputs, flags and seed produce byte-identical
outputs.  Exit codes: 0 success, 2 bad input (``OSError`` or ``InputError``),
1 internal error (a bug), reported with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from contextlib import nullcontext
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

_encode_string = json.encoder.encode_basestring_ascii  # C, when the _json extension is built


def _dump_json(value, write, newline: str = "\n") -> None:
    """Write the text of ``json.dumps(value, indent=2, sort_keys=True)`` in pieces.

    Dict keys must be strings.  The stdlib encodes with its pure-Python
    encoder whenever ``indent`` is set; this walk does the layout, hands
    every string to the C escaper and never holds the whole text.
    """
    if isinstance(value, str):
        write(_encode_string(value))
    elif isinstance(value, dict) and value:
        inner = newline + "  "
        separator, comma = "{" + inner, "," + inner
        for key in sorted(value):
            write(separator)
            write(_encode_string(key))
            write(": ")
            _dump_json(value[key], write, inner)
            separator = comma
        write(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        separator, comma = "[" + inner, "," + inner
        for item in value:
            write(separator)
            _dump_json(item, write, inner)
            separator = comma
        write(newline + "]")
    else:  # a number, a boolean, None or an empty container
        write(json.dumps(value))


def _write_report(report: dict, out: str | None):
    if out is None:
        _dump_json(report, sys.stdout.write)
        sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            _dump_json(report, fh.write)
            fh.write("\n")


def _pending_summary(community: Community) -> list[dict]:
    return [
        {
            "member": owner,
            "provide": d.provide,
            "request": d.request,
            "start_time": d.start_time.isoformat(),
            "end_time": d.end_time.isoformat(),
        }
        for owner, d in community.pending()
    ]


def cmd_match(args) -> int:
    if args.community is not None and (args.descriptions or args.taxonomy is not None
                                       or args.allow_specialization or args.no_time_overlap):
        raise InputError("--community is exclusive with description files, --taxonomy,"
                         " --allow-specialization and --no-time-overlap")
    if args.community is not None:
        community, plan = load_community(args.community)
    else:
        tax = (taxonomy.load_taxonomy(args.taxonomy) if args.taxonomy is not None
               else taxonomy.Taxonomy())
        policy = MatchPolicy(allow_specialization=args.allow_specialization,
                             require_time_overlap=not args.no_time_overlap)
        community = Community(tax, policy)
        plan = []
        owners: dict[str, str] = {}  # member id -> the file that registered it
        listed: set[Path] = set()
        for file_name in args.descriptions:
            records = load_descriptions(file_name)  # first: resolve() raises ValueError on a NUL
            resolved = Path(file_name).resolve()
            if resolved in listed:
                raise InputError("the file is listed more than once", file_name)
            listed.add(resolved)
            member_id = Path(file_name).stem
            if member_id in owners:  # a second file with this stem is named by its path
                member_id = file_name
            if member_id in owners:
                raise InputError(f"member id {member_id!r} is already taken by"
                                 f" {owners[member_id]}", file_name)
            owners[member_id] = file_name
            with reading(file_name):  # the stem may be a reserved member id
                community.register(member_id)
            plan.extend((member_id, record) for record in records)
    events = []
    for member_id, record in plan:
        events.extend(community.publish(member_id, record))
    report = {
        "events": [event.to_json_dict() for event in events],
        "pending": _pending_summary(community),
    }
    _write_report(report, args.out)
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
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario_paths = [Path(p) for p in args.scenario]
    # validate every file before running any, so a bad one writes nothing
    specs = [diffusion.load_scenario(path) for path in scenario_paths]
    multiple = len(scenario_paths) > 1
    out = Path(args.out)
    claimed: dict[str, Path] = {}  # output file name -> the scenario that writes it
    for path in scenario_paths if multiple else ():
        for name in [f"{path.stem}.csv"] + [f"{path.stem}.replicates.csv"] * args.dump_replicates:
            if name in claimed:
                raise InputError(f"{claimed[name]} and {path} would both write {out / name}")
            claimed[name] = path
    # an unusable output location fails now, not after the Monte Carlo runs
    if multiple:  # a missing directory is created, so its nearest existing ancestor decides
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise InputError(f"--out must be a directory for several scenarios,"
                             f" and {existing} is not one", out)
    elif out.is_dir() or not out.parent.is_dir():
        raise InputError("--out must name a file in an existing directory", out)
    if args.replicates < 1:  # checked before any output is made
        raise InputError("replicates must be at least 1")
    for scenario_path, spec in zip(scenario_paths, specs):
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
        if multiple:
            out.mkdir(parents=True, exist_ok=True)
        target = out / f"{scenario_path.stem}.csv" if multiple else out
        dump_path = target.with_name(target.stem + ".replicates.csv")
        # each replicate's rows are written as it finishes; no trace is kept
        with (diffusion.write_replicates_csv(dump_path) if args.dump_replicates
              else nullcontext()) as dump:
            def on_replicate(r, trace):
                if args.replicates == 1:
                    diffusion.write_trace_csv(trace, target)
                if dump is not None:
                    dump(r, trace)

            result = diffusion.monte_carlo(spec, args.replicates, on_replicate)
        if args.replicates > 1:
            diffusion.write_aggregate_csv(result, target)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a bug: the traceback, then one summary line
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
