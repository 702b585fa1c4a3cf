"""Seeded input generators and output checks for the four benchmark workloads.

Each workload is one real ``fso`` command on generated files.  A generator
writes every input file into a fresh directory and returns a ``Case``: the
command's arguments, the files it writes, its op count, the loader the
set-up probe calls, and a check of its outputs.  The same seed always
writes the same bytes, and the program only ever sees those files.

Why these workloads:

- ``match`` runs the quadratic ``Community.publish`` scan with
  specialization on, the harder case for a publish index.
- ``resolve`` is the only workload where ``fractal`` does the work; booking
  pressure is kept below the point where members run out and every
  condition climbs to the root.
- ``experiment`` is the paper's experiment: many short runs, so per-run
  set-up and ``monte_carlo`` aggregation weigh heavily.
- ``simulate-large`` uses the same diffusion layer the opposite way, a few
  large runs where ``step`` and max-degree ``isolate`` dominate.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Callable

SERVICE_NS = "http://www.pats.ua.ac.be/AALService#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
ACTIVITY_PREFIX = "activity:"

# The paper's isolation steps for no, a single and repeated isolation.
ISOLATION_PLANS = {"baseline": (), "single": (10,), "repeated": (10, 20, 40, 70, 120)}


@dataclass
class Case:
    """Generated inputs of one workload, and how to check what it writes."""

    workload: str
    argv: list[str]  # arguments after ``fso``
    outputs: list[Path]  # files the command writes, in a fixed order
    ops: int
    loader: str  # community | fixture | scenario
    load_paths: list[str]
    params: dict
    check: Callable[["Case", str], list[str]]  # (case, stdout) -> problems
    expected: dict  # facts the check relies on


def output_digests(case: Case) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in case.outputs}


# --- match ---------------------------------------------------------------

MATCH_DEFAULTS = {
    "members": 150,
    "records_per_member": 20,
    "taxonomy_types": 255,
    "days": 30,
    "allow_specialization": True,
}

# record kind -> weight; "group" provides and requests one type, so two
# such records form a group activity, and "location" offers bind them.
_MATCH_KINDS = (
    ("provide", 30),
    ("request", 30),
    ("exchange", 22),
    ("group", 10),
    ("location", 8),
)


def _timestamp(moment: datetime) -> str:
    return f'"{moment.isoformat()}"^^xsd:dateTime'


def _record_text(rng: random.Random, creator: str, start0: datetime, days: int,
                 provide: str | None, request: str | None) -> str:
    start = start0 + timedelta(minutes=rng.randrange(days * 24 * 60))
    end = start + timedelta(minutes=rng.randrange(60, 8 * 60))
    created = start - timedelta(hours=rng.randrange(1, 72))
    lines = [
        f"  service:creationTime {_timestamp(created)}",
        f"  service:endTime {_timestamp(end)}",
        f"  service:hasCreator <http://example.org/user/{creator}#this>",
    ]
    if provide is not None and rng.random() < 0.2:
        lines.append(
            "  service:hasServiceLocation [\n"
            "    a <http://dbpedia.org/ontology/Park> ;\n"
            "    <http://dbpedia.org/ontology/location>"
            f" <http://dbpedia.org/resource/District{rng.randrange(10)}>\n  ]"
        )
    if provide is not None:
        lines.append(f"  service:provide service:{provide}")
    if request is not None:
        lines.append(f"  service:request service:{request}")
    lines.append(f"  service:startTime {_timestamp(start)}")
    return "[\n" + " ;\n".join(lines) + "\n] .\n"


def generate_match(work: Path, seed: int, **overrides) -> Case:
    params = {**MATCH_DEFAULTS, **overrides}
    rng = random.Random(f"match-{seed}")
    types = [f"T{i}" for i in range(params["taxonomy_types"])]
    (work / "types.txt").write_text(
        "".join(f"T{i} subClassOf T{(i - 1) // 2}\n" for i in range(1, len(types))),
        encoding="utf-8",
    )
    kinds = [kind for kind, _ in _MATCH_KINDS]
    weights = [weight for _, weight in _MATCH_KINDS]
    start0 = datetime(2013, 5, 1)
    members = []
    for m in range(params["members"]):
        member_id = f"m{m:04d}"
        chunks = [f"@prefix service: <{SERVICE_NS}> .\n@prefix xsd: <{XSD_NS}> .\n\n"]
        for _ in range(params["records_per_member"]):
            kind = rng.choices(kinds, weights)[0]
            a, b = rng.choice(types), rng.choice(types)
            provide, request = {
                "provide": (a, None),
                "request": (None, a),
                "exchange": (a, b),
                "group": (a, a),
                "location": ("Location", None),
            }[kind]
            chunks.append(_record_text(rng, member_id, start0, params["days"],
                                       provide, request))
        (work / f"{member_id}.ttl").write_text("".join(chunks), encoding="utf-8")
        members.append({"id": member_id, "descriptions": [f"{member_id}.ttl"]})
    document = {
        "taxonomy": "types.txt",
        "policy": {
            "allow_specialization": params["allow_specialization"],
            "require_time_overlap": True,
        },
        "members": members,
    }
    (work / "community.json").write_text(json.dumps(document, indent=1), encoding="utf-8")
    report = work / "match-report.json"
    records = params["members"] * params["records_per_member"]
    return Case(
        workload="match",
        argv=["match", "--community", str(work / "community.json"), "--out", str(report)],
        outputs=[report],
        ops=records,
        loader="community",
        load_paths=[str(work / "community.json")],
        params=params,
        check=check_match,
        expected={"publications": records},
    )


def match_accounting(report: dict) -> dict:
    """Split a match report into the counts its invariants relate."""
    person_events = activity_events = 0
    promoted_types = set()
    for event in report["events"]:
        if event["members"][0].startswith(ACTIVITY_PREFIX):
            activity_events += 1
        else:
            person_events += 1
            if event["kind"] == "group":
                promoted_types.add(event["matched_type"])
    pending_activities = sum(
        1 for item in report["pending"] if item["member"].startswith(ACTIVITY_PREFIX)
    )
    return {
        "person_events": person_events,
        "activity_events": activity_events,
        "promoted_types": len(promoted_types),
        "pending_activities": pending_activities,
        "pending_records": len(report["pending"]) - pending_activities,
    }


def check_match(case: Case, stdout: str) -> list[str]:
    """Every publication is consumed by exactly one event or still pending.

    A person-person event consumes both records; an event led by a group
    activity consumes only the newcomer's, and the activity's own record
    stays pending.  Each group type promotes exactly one activity.
    """
    report = json.loads(case.outputs[0].read_text(encoding="utf-8"))
    counts = match_accounting(report)
    problems = []
    accounted = (2 * counts["person_events"] + counts["activity_events"]
                 + counts["pending_records"])
    if accounted != case.expected["publications"]:
        problems.append(
            f"match: events and pending account for {accounted} records,"
            f" {case.expected['publications']} were published"
        )
    if counts["pending_activities"] != counts["promoted_types"]:
        problems.append(
            f"match: {counts['pending_activities']} standing activities for"
            f" {counts['promoted_types']} promoted group types"
        )
    return problems


# --- resolve -------------------------------------------------------------

RESOLVE_DEFAULTS = {
    "depth": 4,
    "fanout": 5,
    "members_per_community": 20,
    "conditions": 4000,
    "categories": 6,
    "leaves_per_category": 5,
    "preassigned_share": 0.1,
}

COORDINATOR = "Coordinator"


def _tree(prefix: str, depth: int, fanout: int) -> list[tuple[str, list[str]]]:
    """Community ids in preorder, each with its children's ids."""
    children = [f"{prefix}.{i}" for i in range(fanout)] if depth > 0 else []
    nodes = [(prefix, children)]
    for child in children:
        nodes.extend(_tree(child, depth - 1, fanout))
    return nodes


def generate_resolve(work: Path, seed: int, **overrides) -> Case:
    params = {**RESOLVE_DEFAULTS, **overrides}
    rng = random.Random(f"resolve-{seed}")
    categories = [f"Role{c}" for c in range(params["categories"])]
    leaves = [f"{cat}x{i}" for cat in categories
              for i in range(params["leaves_per_category"])]
    (work / "roles.txt").write_text(
        "".join(f"{leaf} subClassOf {leaf.split('x')[0]}\n" for leaf in leaves),
        encoding="utf-8",
    )
    nodes = _tree("c", params["depth"], params["fanout"])
    # Member 0 of every community is a coordinator: it offers only a type
    # no search ever asks for, so it is booked only by preassignment and a
    # preassigned coordinator is always free.
    coordinators = []
    members_of: dict[str, list[dict]] = {}
    for node_id, _ in nodes:
        members = []
        for j in range(params["members_per_community"]):
            member_id = f"{node_id}-m{j:02d}"
            if j == 0:
                coordinators.append(member_id)
                offers = [COORDINATOR]
            else:
                offers = sorted(set(rng.sample(leaves, rng.choice((1, 1, 2)))))
            members.append({"id": member_id, "offers": offers})
        members_of[node_id] = members

    children = dict(nodes)

    def build(node_id: str) -> dict:
        return {
            "id": node_id,
            "members": members_of[node_id],
            "children": [build(child) for child in children[node_id]],
        }

    node_ids = [node_id for node_id, _ in nodes]
    preassigned = iter(rng.sample(coordinators, len(coordinators)))
    conditions = []
    for k in range(params["conditions"]):
        roles = [rng.choice(leaves) if rng.random() < 0.6 else rng.choice(categories)
                 for _ in range(3)]
        condition = {"id": f"cond{k:05d}", "origin": rng.choice(node_ids), "roles": roles}
        if rng.random() < params["preassigned_share"]:
            member_id = next(preassigned, None)
            if member_id is not None:
                roles[2] = COORDINATOR
                condition["state"] = {COORDINATOR: member_id}
        conditions.append(condition)
    document = {"taxonomy": "roles.txt", "community": build("c"),
                "conditions": conditions}
    (work / "organization.json").write_text(json.dumps(document), encoding="utf-8")
    report = work / "resolve-report.json"
    return Case(
        workload="resolve",
        argv=["resolve", "--fixture", str(work / "organization.json"), "--out", str(report)],
        outputs=[report],
        ops=len(conditions),
        loader="fixture",
        load_paths=[str(work / "organization.json")],
        params={**params, "communities": len(nodes),
                "members": len(nodes) * params["members_per_community"]},
        check=check_resolve,
        expected={"conditions": [(c["id"], c["roles"]) for c in conditions]},
    )


def check_resolve(case: Case, stdout: str) -> list[str]:
    """One result per condition, in order; each complete or naming its gaps.

    No member serves two overlays, because nothing is dissolved.
    """
    results = json.loads(case.outputs[0].read_text(encoding="utf-8"))["results"]
    expected = case.expected["conditions"]
    if [r["condition"] for r in results] != [cid for cid, _ in expected]:
        return [f"resolve: {len(results)} results do not follow the"
                f" {len(expected)} conditions in order"]
    problems = []
    booked: set[str] = set()
    for result, (cid, roles) in zip(results, expected):
        if result["status"] == "complete":
            members = [slot["member"] for slot in result["assignment"]]
            ok = (not result["missing_roles"]
                  and [slot["role"] for slot in result["assignment"]] == roles
                  and booked.isdisjoint(members) and len(set(members)) == len(members))
            booked.update(members)
        else:
            ok = result["status"] == "incomplete" and bool(result["missing_roles"])
        if not ok:
            problems.append(f"resolve: result for {cid} is inconsistent")
    return problems


# --- simulate ------------------------------------------------------------

EXPERIMENT_DEFAULTS = {
    "agents": 15,
    "horizon": 150,
    "replicates": 100,
    "plans": ["baseline", "single", "repeated"],
}

SIMULATE_LARGE_DEFAULTS = {
    "agents": 600,
    "horizon": 150,
    "replicates": 3,
    "plans": ["repeated"],
}


def _generate_simulate(name: str, work: Path, seed: int, params: dict) -> Case:
    rng = random.Random(f"{name}-{seed}")
    out_dir = work / "traces"
    scenario_paths = []
    for plan in params["plans"]:
        for topology in ("fractal", "hierarchy"):
            scenario = {
                "topology": topology,
                "agents": params["agents"],
                "horizon": params["horizon"],
                "transmit_probability": 0.5,
                "isolation_events": [[t, "max_degree"] for t in ISOLATION_PLANS[plan]],
                "seed": rng.randrange(2**31),
            }
            path = work / f"{plan}-{topology}.json"
            path.write_text(json.dumps(scenario), encoding="utf-8")
            scenario_paths.append(path)
    runs = len(scenario_paths) * params["replicates"]
    return Case(
        workload=name,
        argv=["simulate", "--scenario", *map(str, scenario_paths),
              "--replicates", str(params["replicates"]), "--out", str(out_dir) + "/"],
        outputs=[out_dir / f"{path.stem}.csv" for path in scenario_paths],
        ops=params["agents"] * params["horizon"] * runs,
        loader="scenario",
        load_paths=[str(path) for path in scenario_paths],
        params={**params, "runs": runs},
        check=check_simulate,
        expected={"horizon": params["horizon"], "agents": params["agents"],
                  "scenarios": [path.stem for path in scenario_paths]},
    )


def generate_experiment(work: Path, seed: int, **overrides) -> Case:
    return _generate_simulate("experiment", work, seed,
                              {**EXPERIMENT_DEFAULTS, **overrides})


def generate_simulate_large(work: Path, seed: int, **overrides) -> Case:
    return _generate_simulate("simulate-large", work, seed,
                              {**SIMULATE_LARGE_DEFAULTS, **overrides})


def check_simulate(case: Case, stdout: str) -> list[str]:
    """Each CSV has horizon+1 steps of non-decreasing min <= mean <= max.

    A single replicate writes one value per step, which stands for all three.

    Knowledge only grows and every agent starts with one of ``agents``
    units, so step 0 reads 1/agents; the printed final mean matches the CSV.
    """
    horizon, agents = case.expected["horizon"], case.expected["agents"]
    lines = stdout.splitlines()
    if len(lines) != len(case.outputs):
        return [f"{case.workload}: {len(lines)} summary lines for"
                f" {len(case.outputs)} scenarios"]
    problems = []
    for path, line in zip(case.outputs, lines):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        body = [[float(x) for x in row] for row in rows[1:]]
        if rows[0] == ["step", "diffusion"]:  # a single replicate
            body = [[step, value, value, value] for step, value in body]
        ok = (
            rows[0] in (["step", "mean", "min", "max"], ["step", "diffusion"])
            and len(body) == horizon + 1
            and [int(row[0]) for row in body] == list(range(horizon + 1))
            and all(row[2] - 1e-12 <= row[1] <= row[3] + 1e-12 for row in body)
            and body[-1][3] <= 1.0
            and all(a[c] <= b[c] for a, b in zip(body, body[1:]) for c in (1, 2, 3))
            and abs(body[0][1] - 1 / agents) < 1e-12
            and line.startswith(f"{path.stem} (")
            and line.endswith(f"final mean diffusion {body[-1][1]:.6f}")
        )
        if not ok:
            problems.append(f"{case.workload}: {path.name} breaks the trace invariants")
    return problems


GENERATORS = {
    "match": generate_match,
    "resolve": generate_resolve,
    "experiment": generate_experiment,
    "simulate-large": generate_simulate_large,
}
