import itertools
import random
from pathlib import Path

import pytest

from fso.fractal import (
    AlreadyDissolved,
    CommunityNode,
    FractalOrganization,
    Member,
    OverlayStatus,
    TriggeringCondition,
    load_fixture,
)
from fso.inputs import InputError
from fso.taxonomy import Taxonomy
from oracles import ReferenceFractalOrganization, node_depth, random_dag, resolution_json

DATA = Path(__file__).parent / "data"


def condition(origin, roles, cid="cond"):
    return TriggeringCondition(id=cid, origin=origin, required_roles=tuple(roles))


def two_leaf_org():
    root = CommunityNode("city")
    left = root.add_child(
        CommunityNode("district-a", [Member("flat-3", ["Transport"])])
    )
    root.add_child(CommunityNode("district-b", [Member("clinic-7", ["Nurse"])]))
    return FractalOrganization(root, Taxonomy([("Nurse", "Caregiver")])), left


def test_local_resolution_has_empty_trail():
    org, _ = two_leaf_org()
    result = org.resolve(condition("district-a", ["Transport"]))
    assert result.complete
    assert result.exceptions == ()
    assert result.overlay.assignments == (("Transport", "flat-3"),)


def test_sibling_provider_raises_exactly_one_exception():
    org, _ = two_leaf_org()
    result = org.resolve(condition("district-a", ["Nurse"]))
    assert result.complete
    assert len(result.exceptions) == 1
    record = result.exceptions[0]
    assert record.community_id == "district-a"
    assert record.missing_roles == ("Nurse",)
    assert result.overlay.assignments == (("Nurse", "clinic-7"),)
    assert result.overlay.home_communities == {"clinic-7": "district-b"}


def test_unoffered_role_escalates_to_depth():
    org, left = two_leaf_org()
    result = org.resolve(condition("district-a", ["Doctor"]))
    assert not result.complete
    assert result.missing_roles == ("Doctor",)
    assert len(result.exceptions) == node_depth(left) == 1


def test_unknown_origin_rejected():
    org, _ = two_leaf_org()
    with pytest.raises(InputError, match=r"^unknown community 'nowhere'$"):
        org.resolve(condition("nowhere", ["Nurse"]))


def test_subsumption_aware_role_matching():
    org, _ = two_leaf_org()
    result = org.resolve(condition("district-b", ["Caregiver"]))
    assert result.complete
    assert result.overlay.assignments == (("Caregiver", "clinic-7"),)


def test_one_member_cannot_take_two_roles():
    org, _ = two_leaf_org()
    result = org.resolve(condition("district-b", ["Nurse", "Caregiver"]))
    assert not result.complete
    assert result.missing_roles == ("Caregiver",)


def test_sole_provider_is_booked_until_dissolved():
    org, _ = two_leaf_org()
    first = org.resolve(condition("district-a", ["Nurse"], cid="c1"))
    assert first.complete
    second = org.resolve(condition("district-a", ["Nurse"], cid="c2"))
    assert not second.complete
    org.dissolve(first.overlay)
    assert first.overlay.status is OverlayStatus.DISSOLVED
    third = org.resolve(condition("district-a", ["Nurse"], cid="c3"))
    assert third.complete
    assert third.overlay.assignments == first.overlay.assignments


def test_dissolve_twice_rejected():
    org, _ = two_leaf_org()
    result = org.resolve(condition("district-a", ["Nurse"]))
    org.dissolve(result.overlay)
    with pytest.raises(AlreadyDissolved):
        org.dissolve(result.overlay)


def test_active_overlays_never_share_members():
    org, _ = two_leaf_org()
    first = org.resolve(condition("district-a", ["Transport"], cid="c1"))
    second = org.resolve(condition("district-b", ["Nurse"], cid="c2"))
    assert first.complete and second.complete
    assert not set(first.overlay.member_ids) & set(second.overlay.member_ids)


def test_preassigned_state_is_kept():
    org, _ = two_leaf_org()
    cond = TriggeringCondition(
        id="c", origin="district-a", required_roles=("Nurse", "Transport"),
        state={0: "clinic-7"},
    )
    result = org.resolve(cond)
    assert result.complete
    assert result.overlay.assignments == (
        ("Nurse", "clinic-7"),
        ("Transport", "flat-3"),
    )
    assert result.exceptions == ()


def test_a_community_has_one_parent():
    child = CommunityNode("district")
    CommunityNode("city").add_child(child)
    with pytest.raises(ValueError, match=r"^community 'district' already has a parent$"):
        CommunityNode("town").add_child(child)


def test_preassigned_slot_must_name_a_role():
    with pytest.raises(ValueError, match=r"^preassigned slot 3 is out of range$"):
        TriggeringCondition("c", "city", ("Nurse", "Transport", "Cooking"), {3: "m"})


def test_duplicate_member_ids_rejected():
    root = CommunityNode("root", [Member("m1")])
    root.add_child(CommunityNode("leaf", [Member("m1")]))
    with pytest.raises(ValueError):
        FractalOrganization(root, Taxonomy())


def test_fixture_file_roundtrip():
    org, conditions = load_fixture(DATA / "sibling_fixture.json")
    assert [c.id for c in conditions] == ["fall-alarm"]
    result = org.resolve(conditions[0])
    assert result.complete
    assert len(result.exceptions) == 1
    data = resolution_json(result)
    assert data["status"] == "complete"
    assert data["assignment"] == [{"role": "Nurse", "member": "clinic-7"}]


# --- randomized properties ------------------------------------------------

ROLE_TYPES = ["Fitness", "Walking", "Nurse", "Caregiver", "Transport", "Ambulance", "Cooking"]
TAXONOMY_EDGES = [("Walking", "Fitness"), ("Nurse", "Caregiver"), ("Ambulance", "Transport")]


def random_org(rng, max_levels=4, max_members=30):
    counter = itertools.count()
    budget = rng.randint(1, max_members)
    members_made = itertools.count()

    def build(level):
        node = CommunityNode(f"c{next(counter)}")
        for _ in range(rng.randint(0, 3)):
            if next(members_made) >= budget:
                break
            offers = rng.sample(ROLE_TYPES, rng.randint(0, 2))
            node.members.append(Member(f"m{next(counter)}", offers))
        if level + 1 < max_levels:
            for _ in range(rng.randint(0, 2)):
                node.add_child(build(level + 1))
        return node

    root = build(0)
    return FractalOrganization(root, Taxonomy(TAXONOMY_EDGES))


def random_condition(rng, org, favor_local=False):
    nodes = list(org.root.walk())
    origin = rng.choice(nodes)
    pool = ROLE_TYPES
    if favor_local:
        local_offers = sorted({o for m in origin.members for o in m.offers})
        pool = local_offers or ROLE_TYPES
    roles = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
    return condition(origin.id, roles, cid=f"cond-{origin.id}"), origin


def local_greedy_completes(node, roles, tax):
    """Independent restatement of single-community staffing."""
    members = sorted(node.members, key=lambda m: m.id)
    taken = set()
    for role in roles:
        chosen = None
        for member in members:
            if member.id in taken:
                continue
            if any(tax.is_subtype(offer, role) for offer in member.offers):
                chosen = member.id
                break
        if chosen is None:
            return False
        taken.add(chosen)
    return True


def test_trail_never_longer_than_origin_depth():
    rng = random.Random(21)
    for _ in range(300):
        org = random_org(rng)
        cond, origin = random_condition(rng, org)
        result = org.resolve(cond)
        assert len(result.exceptions) <= node_depth(origin)
        if result.complete:
            assert result.missing_roles == ()
        else:
            assert result.missing_roles


def test_locally_resolvable_conditions_have_empty_trail():
    rng = random.Random(22)
    checked = 0
    for _ in range(600):
        org = random_org(rng)
        cond, origin = random_condition(rng, org, favor_local=True)
        if not local_greedy_completes(origin, cond.required_roles, org.taxonomy):
            continue
        checked += 1
        result = org.resolve(cond)
        assert result.complete
        assert result.exceptions == ()
    assert checked > 100


def test_adding_a_member_preserves_completeness():
    rng = random.Random(23)
    checked = 0
    for _ in range(300):
        org = random_org(rng)
        cond, origin = random_condition(rng, org)
        if not org.resolve(cond).complete:
            continue
        checked += 1
        offers = rng.sample(ROLE_TYPES, rng.randint(1, 3))
        target = rng.choice(list(org.root.walk()))
        target.members.append(Member("extra-member", offers))
        fresh = FractalOrganization(org.root, org.taxonomy)
        assert fresh.resolve(cond).complete
    assert checked > 30


def test_provides_agrees_with_pairwise_subsumption():
    rng = random.Random(24)
    for _ in range(100):
        names, edges = random_dag(rng, max_nodes=12)
        tax = Taxonomy(edges)
        types = names + ["Outside", "Elsewhere"]  # not in the taxonomy
        for _ in range(20):
            member = Member("m", rng.sample(types, rng.randint(0, 3)))
            for role in types:
                expected = any(tax.is_subtype(offer, role) for offer in member.offers)
                assert member.provides(role, tax) == expected


def random_tree(rng, types, max_depth=5, max_members=400):
    """A tree of up to ``max_members`` members whose ids do not sort in build order."""
    ids = [f"m{i:03d}" for i in range(rng.randint(1, max_members))]
    rng.shuffle(ids)
    counter = itertools.count()

    def build(depth):
        node = CommunityNode(f"c{next(counter)}")
        for _ in range(rng.randint(0, 12)):
            if ids:
                node.members.append(Member(ids.pop(), rng.sample(types, rng.randint(0, 2))))
        if depth < max_depth:
            for _ in range(rng.randint(depth == 0, 4 if depth < 2 else 2)):
                node.add_child(build(depth + 1))
        return node

    return build(0)


def random_state(rng, org, roles):
    """Preassignments: often valid, sometimes unknown, unfit, booked or doubled."""
    members = [member.id for node in org.root.walk() for member in node.members]
    choices = members + list(org.booked) + ["ghost"]
    state = {}
    for slot in rng.sample(range(len(roles)), rng.randint(1, len(roles))):
        if state and rng.random() < 0.1:
            state[slot] = rng.choice(list(state.values()))
        else:
            state[slot] = rng.choice(choices)
    return state


def test_resolve_agrees_with_reference_resolver():
    """Random trees, conditions, preassignments and dissolves: same outcome.

    Both organizations share one tree and see the same steps, so their
    bookings carry over from condition to condition in step; after every
    step the reports, the InputError messages and the bookings must agree.
    """
    rng = random.Random(2025)
    steps = resolved = escalated = rejected = 0
    for tree in range(200):
        names, edges = random_dag(rng, max_nodes=10)
        tax = Taxonomy(edges)
        types = names + ["Outside"]
        root = random_tree(rng, types)
        org = FractalOrganization(root, tax)
        reference = ReferenceFractalOrganization(root, tax)
        nodes = [node.id for node in root.walk()] + ["nowhere"]
        overlays = []
        for step in range(rng.randint(10, 40)):
            steps += 1
            if overlays and rng.random() < 0.2:
                mine, theirs = overlays.pop(rng.randrange(len(overlays)))
                org.dissolve(mine)
                reference.dissolve(theirs)
                assert mine.status is theirs.status is OverlayStatus.DISSOLVED
            else:
                roles = tuple(rng.choice(types) for _ in range(rng.randint(1, 4)))
                state = random_state(rng, org, roles) if rng.random() < 0.3 else {}
                cond = TriggeringCondition(f"t{tree}-{step}", rng.choice(nodes), roles, state)
                outcomes = []
                for resolver in (org, reference):
                    try:
                        outcomes.append(resolver.resolve(cond))
                    except InputError as exc:
                        outcomes.append(f"{type(exc).__name__}: {exc}")
                mine, theirs = outcomes
                if isinstance(mine, str):
                    assert mine == theirs
                    rejected += 1
                else:
                    assert mine == theirs  # overlays, home communities and trails
                    escalated += bool(mine.exceptions)
                    if mine.complete:
                        resolved += 1
                        overlays.append((mine.overlay, theirs.overlay))
            assert list(org.booked.items()) == list(reference.booked.items())
    assert steps > 4000 and resolved > 1000 and escalated > 1000 and rejected > 300


# --- the typed-position index ---------------------------------------------


def test_postings_agree_with_provides():
    """A member's position is listed under a type iff it provides that type, once."""
    rng = random.Random(26)
    for _ in range(60):
        names, edges = random_dag(rng, max_nodes=12)
        tax = Taxonomy(edges)
        types = names + ["Outside", "Elsewhere"]  # not in the taxonomy
        org = FractalOrganization(random_tree(rng, types, max_depth=3, max_members=60), tax)
        postings = org._postings()
        for positions in postings.values():
            assert positions == sorted(set(positions))
        for pos, member in enumerate(org._preorder):
            for role in types:
                assert (pos in postings.get(role, ())) == member.provides(role, tax)


def test_member_with_offers_sharing_an_ancestor_is_listed_once():
    tax = Taxonomy([("Nurse", "Caregiver"), ("Doctor", "Caregiver")])
    org = FractalOrganization(CommunityNode("c", [Member("m", ["Nurse", "Doctor"])]), tax)
    assert org._postings() == {"Nurse": [0], "Doctor": [0], "Caregiver": [0]}


def test_taxonomy_changed_between_resolves_is_seen():
    """An edge added to the taxonomy, or another taxonomy, reaches the next resolve."""
    root = CommunityNode("city", [Member("cook", ["Cooking"]), Member("nanny", ["Childcare"])])
    root.add_child(CommunityNode("district", [Member("clinic", ["Nurse"])]))
    org = FractalOrganization(root, Taxonomy([("Nurse", "Caregiver")]))
    reference = ReferenceFractalOrganization(root, org.taxonomy)

    def resolve_both(cid):
        cond = TriggeringCondition(cid, "district", ("Caregiver", "Housekeeping"))
        mine, theirs = org.resolve(cond), reference.resolve(cond)
        assert mine == theirs
        assert org.booked == reference.booked
        return mine

    assert resolve_both("c0").missing_roles == ("Housekeeping",)
    org.taxonomy.add_subclass("Cooking", "Housekeeping")  # the reference's too
    assert resolve_both("c1").overlay.assignments == (
        ("Caregiver", "clinic"), ("Housekeeping", "cook"))
    # as many edges as before, so only the taxonomy's identity tells it apart
    org.taxonomy = reference.taxonomy = Taxonomy(
        [("Childcare", "Caregiver"), ("Cooking", "Housekeeping")])
    assert resolve_both("c2").missing_roles == ("Housekeeping",)


def full_tree(rng, types, weights):
    """A complete tree (781 communities at depth 4, fan-out 5) of about 2,000 members."""
    counter = itertools.count()
    ids = [f"m{i:04d}" for i in range(4000)]
    rng.shuffle(ids)

    def build(level):
        node = CommunityNode(f"c{next(counter)}")
        for _ in range(rng.randint(0, 5)):
            node.members.append(Member(ids.pop(), rng.choices(types, weights, k=rng.randint(1, 2))))
        for _ in range(5 if level < 4 else 0):
            node.add_child(build(level + 1))
        return node

    return build(0)


def test_resolve_agrees_with_reference_resolver_on_a_large_tree():
    """About 2,000 members under booking pressure: many conditions climb to the root.

    Offers are skewed towards a few types and roles towards the rare ones,
    so those run out and their conditions escalate all the way; dissolves
    interleave.  After every step the reports, the InputError messages and
    the bookings agree.
    """
    rng = random.Random(2026)
    names, edges = random_dag(rng, max_nodes=14)
    tax = Taxonomy(edges)
    types = names + ["Outside"]
    weights = [1 / (rank + 1) ** 2 for rank in range(len(types))]
    root = full_tree(rng, types, weights)
    org = FractalOrganization(root, tax)
    reference = ReferenceFractalOrganization(root, tax)
    depths = {node.id: node_depth(node) for node in root.walk()}
    assert len(depths) == 781 and 1800 < len(org._preorder) < 2200
    nodes = list(depths) + ["nowhere"]
    overlays = []
    to_root = rejected = 0
    for step in range(400):
        if overlays and rng.random() < 0.15:
            mine, theirs = overlays.pop(rng.randrange(len(overlays)))
            org.dissolve(mine)
            reference.dissolve(theirs)
        else:
            roles = tuple(rng.choices(types, weights[::-1], k=rng.randint(1, 3)))
            state = random_state(rng, org, roles) if rng.random() < 0.15 else {}
            cond = TriggeringCondition(f"t{step}", rng.choice(nodes), roles, state)
            outcomes = []
            for resolver in (org, reference):
                try:
                    outcomes.append(resolver.resolve(cond))
                except InputError as exc:
                    outcomes.append(f"{type(exc).__name__}: {exc}")
            mine, theirs = outcomes
            if isinstance(mine, str):
                assert mine == theirs
                rejected += 1
            else:
                assert mine == theirs
                to_root += len(mine.exceptions) == depths[cond.origin] > 0
                if mine.complete:
                    overlays.append((mine.overlay, theirs.overlay))
        assert list(org.booked.items()) == list(reference.booked.items())
    assert to_root > 100 and rejected > 30
