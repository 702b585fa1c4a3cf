"""Command-line entry point: semantic matching, role resolution, simulation.

Subcommands::

    fso match     --taxonomy types.txt member1.ttl member2.ttl
    fso match     --community community.json
    fso resolve   --fixture organization.json
    fso simulate  --scenario scenario.json --replicates 100 --out trace.csv

Match and resolve reports are JSON (stdout or ``--out``); simulation
traces are CSV.  Identical inputs, flags and seed produce byte-identical
outputs.  Each subcommand imports only the layers it runs, and runs with
the cyclic garbage collector off (``main`` puts back the caller's
setting; ``run``, the start path of ``python -m fso.cli`` and of the
installed ``fso``, leaves it off to the exit).  The layers'
value types are named tuples and ``inputs.Record``s, so no command imports
``dataclasses`` and the ``inspect`` and ``ast`` that it loads.  Exit codes:
0 success, 2 bad input (``OSError`` or ``InputError``), 1 internal error
(a bug), reported with its traceback.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import TYPE_CHECKING

from .inputs import InputError, reading

if TYPE_CHECKING:  # each command imports the layers it runs, and only those
    from .community import MatchEvent
    from .descriptions import ServiceDescription
    from .fractal import Resolution

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2

_INPUT_ERRORS = (OSError, InputError)

_encode_string = json.encoder.encode_basestring_ascii  # C, when the _json extension is built


def _render_event(event: MatchEvent) -> str:
    """One entry of the match report's ``events``, indented to its place.

    Its kind decides its keys, written here in sorted order: a service
    names the member whose record enacts the matched type as its provider.
    """
    encode = _encode_string
    forward, backward = event.match
    first, second = map(encode, event.members)
    kind = event.kind.value
    fields = [f'"kind": {encode(kind)}']
    if kind != "mutualistic":
        fields.append(f'"matched_type": {encode(backward if forward is None else forward)}')
    fields.append(f'"members": [\n        {first},\n        {second}\n      ]')
    if kind == "service":
        provider, requester = (first, second) if forward is not None else (second, first)
        fields += [f'"provider": {provider}', f'"requester": {requester}']
    elif kind == "mutualistic":
        fields += [f'"x_type": {encode(forward)}', f'"y_type": {encode(backward)}']
    return "{\n      " + ",\n      ".join(fields) + "\n    }"


def _render_pending(owner: str, record: ServiceDescription) -> str:
    """One entry of the match report's ``pending``, indented to its place;
    a side the record does not state is ``null``."""
    encode = _encode_string
    provide = "null" if record.provide is None else encode(record.provide)
    request = "null" if record.request is None else encode(record.request)
    return ("{\n"
            f'      "end_time": {encode(record.end_time.isoformat())},\n'
            f'      "member": {encode(owner)},\n'
            f'      "provide": {provide},\n'
            f'      "request": {request},\n'
            f'      "start_time": {encode(record.start_time.isoformat())}\n'
            "    }")


def _render_resolution(resolution: Resolution) -> str:
    """One entry of the resolve report's ``results``, indented to its place.

    A result has a fixed shape, written out here line by line with its keys
    in sorted order; only a complete result has ``home_communities``.  Each
    list is one join at its fixed indent, and an empty one reads ``[]``.
    """
    encode = _encode_string
    overlay = resolution.overlay
    assignment = ",\n        ".join([
        f'{{\n          "member": {encode(member)},\n          "role": {encode(role)}\n        }}'
        for role, member in (() if overlay is None else overlay.assignments)])
    assignment = f"[\n        {assignment}\n      ]" if assignment else "[]"
    exceptions = ",\n        ".join([
        f'{{\n          "community": {encode(record.community_id)},\n          "missing_roles": '
        + ("[\n            " + ",\n            ".join(map(encode, record.missing_roles))
           + "\n          ]" if record.missing_roles else "[]") + "\n        }"
        for record in resolution.exceptions])
    exceptions = f"[\n        {exceptions}\n      ]" if exceptions else "[]"
    missing = ",\n        ".join(map(encode, resolution.missing_roles))
    missing = f"[\n        {missing}\n      ]" if missing else "[]"
    homes = ""
    if overlay is not None:
        homes = ",\n        ".join([f"{encode(member)}: {encode(home)}"
                                      for member, home in sorted(overlay.home_communities.items())])
        homes = f"{{\n        {homes}\n      }}" if homes else "{}"
        homes = f'      "home_communities": {homes},\n'
    return ("{\n"
            f'      "assignment": {assignment},\n'
            f'      "condition": {encode(resolution.condition_id)},\n'
            f'      "exceptions": {exceptions},\n'
            f"{homes}"
            f'      "missing_roles": {missing},\n'
            f'      "status": "{"incomplete" if overlay is None else "complete"}"\n'
            "    }")


def _write_report(write, sections: dict) -> None:
    """Write ``{key: [entry, ...], ...}`` as ``json.dumps(indent=2, sort_keys=True)``
    would, one entry at a time; each entry comes rendered at a list item's indent."""
    opening = "{"
    for key in sorted(sections):
        write(f"{opening}\n  {_encode_string(key)}: [")
        separator = "\n    "
        for entry in sections[key]:
            write(separator)
            write(entry)
            separator = ",\n    "
        write("]" if separator == "\n    " else "\n  ]")
        opening = ","
    write("{}" if opening == "{" else "\n}")


@contextmanager
def _report(out: str | None):
    """The ``write`` of stdout or of the file ``out``; the report's last newline follows."""
    with nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8") as fh:
        yield fh.write
        fh.write("\n")


def _check_out_file(out: str) -> None:
    """Refuse an ``--out`` that cannot be written as a file, before any work is done."""
    path = Path(out)
    if not out or path.is_dir() or not path.parent.is_dir():
        raise InputError("--out must name a file in an existing directory", out or repr(out))


def cmd_match(args) -> int:
    from . import taxonomy
    from .community import Community, MatchPolicy, load_community
    from .descriptions import load_descriptions

    if args.community is not None and (args.descriptions or args.taxonomy is not None
                                       or args.allow_specialization or args.no_time_overlap):
        raise InputError("--community is exclusive with description files, --taxonomy,"
                         " --allow-specialization and --no-time-overlap")
    if args.out is not None:
        _check_out_file(args.out)
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
    pending = (_render_pending(owner, record) for owner, record in community.pending())
    with _report(args.out) as write:
        _write_report(write, {"events": map(_render_event, events), "pending": pending})
    return EXIT_OK


def cmd_resolve(args) -> int:
    from . import fractal

    if args.out is not None:
        _check_out_file(args.out)
    org, conditions = fractal.load_fixture(args.fixture)
    results = []
    for i, cond in enumerate(conditions):  # all of them first: a bad one writes nothing
        try:
            results.append(org.resolve(cond))
        except InputError as exc:  # an unknown origin, a bad preassignment
            raise InputError(f"conditions[{i}]: {exc}", args.fixture) from None
    with _report(args.out) as write:
        _write_report(write, {"results": map(_render_resolution, results)})
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import diffusion

    # validate every file before running any, so a bad one writes nothing
    specs = [diffusion.load_scenario(path) for path in args.scenario]
    scenario_paths = [Path(p) for p in args.scenario]
    out = Path(args.out)
    # an unusable output location fails now, not after the Monte Carlo runs
    if len(scenario_paths) > 1:  # a missing --out is made: its nearest existing ancestor decides
        if not args.out:  # Path("") is the working directory, which no one named
            raise InputError("--out must name a directory for several scenarios", repr(args.out))
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise InputError(f"--out must be a directory for several scenarios,"
                             f" and {existing} is not one", out)
        targets = [out / f"{path.stem}.csv" for path in scenario_paths]
    else:
        _check_out_file(args.out)
        targets = [out]
    dumps = [t.with_suffix(".replicates.csv") if args.dump_replicates else None for t in targets]
    writers: dict[Path, Path] = {}  # each output file -> the scenario that writes it
    for path, target, dump_path in zip(scenario_paths, targets, dumps):
        for file in filter(None, (target, dump_path)):
            if file in writers:
                raise InputError(f"{writers[file]} and {path} would both write {file}")
            if file.is_dir():
                raise InputError("the output file is an existing directory", file)
            writers[file] = path
    if args.replicates < 1:  # checked before any output is made
        raise InputError("replicates must be at least 1")
    if args.seed is not None and args.seed < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")
    targets[0].parent.mkdir(parents=True, exist_ok=True)  # a missing --out of several scenarios
    for scenario_path, spec, target, dump_path in zip(scenario_paths, specs, targets, dumps):
        if args.seed is not None:
            spec = spec._replace(seed=args.seed)
        # each replicate's rows are written as it finishes; no trace is kept
        with (nullcontext() if dump_path is None
              else diffusion.write_replicates_csv(dump_path)) as dump:
            result = diffusion.monte_carlo(spec, args.replicates, dump)
        if args.replicates == 1:  # the mean of one run is that run: x / 1 == x
            diffusion.write_trace_csv(result.mean, target)
        else:
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
    # No command makes cyclic garbage of its own, and what the loaders build
    # is freed by reference counting, so the collector's passes over it buy
    # nothing.  A caller's setting is put back, as found.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a bug: the traceback, then one summary line
        import traceback  # only a bug reads it: no command pays for its import

        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


def run() -> int:
    """The one start path, of ``python -m fso.cli`` and of the installed ``fso``:
    ``main`` with the collector off to the exit, since a pass after ``main``
    would walk all the command built only to free what the exit frees."""
    gc.disable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
