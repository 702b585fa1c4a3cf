import random
from datetime import datetime, timedelta
from itertools import permutations

import pytest

from fso.community import (
    NO_MATCH,
    Community,
    Match,
    MatchPolicy,
    MatchType,
    UnknownMember,
    match_pair,
)
from fso.descriptions import ServiceDescription
from fso.taxonomy import Taxonomy

from oracles import ReferenceCommunity, event_json, random_dag, random_type_name

DAY = datetime(2013, 5, 12)


def desc(provide=None, request=None, start_hour=17, end_hour=21, creator="u"):
    return ServiceDescription(
        creation_time=DAY,
        start_time=DAY + timedelta(hours=start_hour),
        end_time=DAY + timedelta(hours=end_hour),
        creator=f"http://example.org/{creator}",
        provide=provide,
        request=request,
    )


@pytest.fixture
def fitness_tax():
    return Taxonomy(
        [("Walking", "Fitness"), ("Jogging", "Fitness"), ("Cycling", "Fitness")]
    )


class NonPromotingCommunity(Community):
    """A community that leaves every group match unpromoted, as the rescan oracle does."""

    def _promote(self, event):
        return []


def activity_record(community, activity_id):
    """The activity's one outstanding record."""
    [record] = [d for owner, d in community.pending() if owner == activity_id]
    return record


def served_by(events, activity_id):
    """Who the activity served: its events whose ``forward`` is set, in order."""
    return [e.members[1] for e in events
            if e.members[0] == activity_id and e.match.forward is not None]


def venue_of(events, activity_id):
    """Who bound the activity's venue: its events whose ``backward`` is set."""
    return [e.members[1] for e in events
            if e.members[0] == activity_id and e.match.backward is not None]


# --- match_pair ----------------------------------------------------------


@pytest.mark.parametrize("pair, kind", [
    ((), MatchType.NO_MATCH),
    (("A",), MatchType.SERVICE),
    ((None, "A"), MatchType.SERVICE),
    (("A", "B"), MatchType.MUTUALISTIC),
    (("A", "A"), MatchType.GROUP),
])
def test_a_match_kind_is_read_from_its_pair(pair, kind):
    match = Match(*pair)
    assert match.kind is kind
    assert (match == NO_MATCH) == (kind is MatchType.NO_MATCH)


def test_walking_offer_satisfies_fitness_request(fitness_tax):
    m = match_pair(desc(provide="Walking"), desc(request="Fitness"), fitness_tax)
    assert m.kind is MatchType.SERVICE
    assert (m.forward, m.backward) == ("Walking", None)


def test_specialization_is_gated_by_policy(fitness_tax):
    offer, want = desc(provide="Fitness"), desc(request="Walking")
    strict = match_pair(offer, want, fitness_tax, MatchPolicy())
    assert strict.kind is MatchType.NO_MATCH
    loose = match_pair(
        offer, want, fitness_tax, MatchPolicy(allow_specialization=True)
    )
    assert loose.kind is MatchType.SERVICE
    assert (loose.forward, loose.backward) == ("Walking", None)


def test_two_walking_records_form_a_group(fitness_tax):
    m = match_pair(
        desc(provide="Walking", request="Walking"),
        desc(provide="Walking", request="Walking"),
        fitness_tax,
    )
    assert m.kind is MatchType.GROUP
    assert (m.forward, m.backward) == ("Walking", "Walking")


def test_crossed_types_are_mutualistic(fitness_tax):
    m = match_pair(
        desc(provide="Cooking", request="Walking"),
        desc(provide="Walking", request="Cooking"),
        fitness_tax,
    )
    assert m.kind is MatchType.MUTUALISTIC
    assert (m.forward, m.backward) == ("Cooking", "Walking")


def test_disjoint_windows_do_not_match(fitness_tax):
    a = desc(provide="Walking", start_hour=8, end_hour=10)
    b = desc(request="Walking", start_hour=11, end_hour=12)
    assert match_pair(a, b, fitness_tax).kind is MatchType.NO_MATCH
    loose = MatchPolicy(require_time_overlap=False)
    assert match_pair(a, b, fitness_tax, loose).kind is MatchType.SERVICE


def test_exact_type_match_ignores_specialization_flag(fitness_tax):
    a, b = desc(provide="Walking"), desc(request="Walking")
    for flag in (False, True):
        m = match_pair(a, b, fitness_tax, MatchPolicy(allow_specialization=flag))
        assert m.kind is MatchType.SERVICE
        assert (m.forward, m.backward) == ("Walking", None)


def test_match_pair_symmetry_on_random_descriptions(fitness_tax):
    rng = random.Random(4)
    for _ in range(300):
        shapes = []
        for _ in range(2):
            kind = rng.choice(("provide", "request", "both"))
            shapes.append(
                desc(
                    provide=random_type_name(rng) if kind in ("provide", "both") else None,
                    request=random_type_name(rng) if kind in ("request", "both") else None,
                    start_hour=rng.randint(0, 12),
                    end_hour=rng.randint(13, 23),
                )
            )
        a, b = shapes
        pol = MatchPolicy(allow_specialization=rng.random() < 0.5)
        ab = match_pair(a, b, fitness_tax, pol)
        ba = match_pair(b, a, fitness_tax, pol)
        assert ab.kind == ba.kind
        assert (ab.forward, ab.backward) == (ba.backward, ba.forward)


# --- publish -------------------------------------------------------------


def test_publish_matches_request_with_later_offer(fitness_tax):
    community = Community(fitness_tax)
    community.register("m1")
    community.register("m2")
    assert community.publish("m1", desc(request="Fitness")) == []
    events = community.publish("m2", desc(provide="Walking"))
    assert len(events) == 1
    event = events[0]
    assert event.kind is MatchType.SERVICE
    assert event_json(event)["provider"] == "m2"
    assert event_json(event)["requester"] == "m1"
    assert event_json(event)["matched_type"] == "Walking"
    assert community.pending() == []


def test_no_self_match(fitness_tax):
    community = Community(fitness_tax)
    community.register("m1")
    community.publish("m1", desc(request="Walking"))
    events = community.publish("m1", desc(provide="Walking"))
    assert events == []
    assert len(community.pending()) == 2


def test_unknown_member_rejected(fitness_tax):
    community = Community(fitness_tax)
    with pytest.raises(UnknownMember):
        community.publish("ghost", desc(provide="Walking"))


def test_group_walk_scenario(fitness_tax):
    community = Community(fitness_tax)
    for member in ("m1", "m2", "m3", "m4"):
        community.register(member)
    first = community.publish("m1", desc(provide="Walking", request="Walking"))
    assert first == []
    second = community.publish("m2", desc(provide="Walking", request="Walking"))
    assert [e.kind for e in second] == [MatchType.GROUP]
    assert second[0].members == ("m1", "m2")
    assert community.activities == {"activity:Walking"}
    assert activity_record(community, "activity:Walking").provide == "Walking"
    assert activity_record(community, "activity:Walking").request == "Location"

    third = community.publish("m3", desc(request="Walking"))
    assert [e.kind for e in third] == [MatchType.SERVICE]
    assert event_json(third[0])["provider"] == "activity:Walking"
    assert (served_by(third, "activity:Walking"), venue_of(third, "activity:Walking")) == (["m3"], [])

    fourth = community.publish("m4", desc(provide="Location"))
    assert [e.kind for e in fourth] == [MatchType.SERVICE]
    assert event_json(fourth[0])["provider"] == "m4"
    assert (served_by(fourth, "activity:Walking"), venue_of(fourth, "activity:Walking")) == ([], ["m4"])
    assert activity_record(community, "activity:Walking").request is None


def test_an_activity_cannot_publish_records_of_its_own(fitness_tax):
    community = Community(fitness_tax)
    for member in ("m1", "m2", "m3"):
        community.register(member)
    community.publish("m1", desc(provide="Walking", request="Walking"))
    community.publish("m2", desc(provide="Walking", request="Walking"))
    with pytest.raises(UnknownMember):
        community.publish("activity:Walking", desc(request="Cooking"))
    cooking = desc(provide="Cooking")
    assert community.publish("m3", cooking) == []
    record = activity_record(community, "activity:Walking")
    assert record.request == "Location"
    assert community.pending() == [("activity:Walking", record), ("m3", cooking)]


def test_unlocated_activity_keeps_residual_request(fitness_tax):
    community = Community(fitness_tax)
    community.register("m1")
    community.register("m2")
    events = community.publish("m1", desc(provide="Jogging", request="Jogging"))
    events += community.publish("m2", desc(provide="Jogging", request="Jogging"))
    assert community.activities == {"activity:Jogging"}
    assert venue_of(events, "activity:Jogging") == []
    assert activity_record(community, "activity:Jogging").request == "Location"


def test_requesters_join_one_activity_under_any_publication_order(fitness_tax):
    walk = lambda: desc(provide="Walking", request="Walking")
    publications = [
        ("m1", walk()),
        ("m2", walk()),
        ("m3", walk()),
        ("m4", walk()),
        ("m5", desc(provide="Location")),
    ]
    for order in permutations(publications):
        community = Community(fitness_tax)
        for member, _ in publications:
            community.register(member)
        events = [e for member, record in order for e in community.publish(member, record)]
        assert community.activities == {"activity:Walking"}
        founders = {m for e in events if e.kind is MatchType.GROUP for m in e.members}
        assert founders | set(served_by(events, "activity:Walking")) == {"m1", "m2", "m3", "m4"}
        assert venue_of(events, "activity:Walking") == ["m5"]


def test_promoted_description_is_valid(fitness_tax):
    community = Community(fitness_tax)
    community.register("m1")
    community.register("m2")
    community.publish("m1", desc(provide="Cycling", request="Cycling", start_hour=10, end_hour=20))
    community.publish("m2", desc(provide="Cycling", request="Cycling", start_hour=12, end_hour=22))
    d = activity_record(community, "activity:Cycling")
    assert d.start_time == DAY + timedelta(hours=12)
    assert d.end_time == DAY + timedelta(hours=20)
    assert d.provide == "Cycling"


def test_pending_reflects_publication_order(fitness_tax):
    community = Community(fitness_tax)
    community.register("m1")
    community.register("m2")
    first = desc(request="Cooking")
    second = desc(request="Transport")
    community.publish("m1", first)
    community.publish("m2", second)
    assert community.pending() == [("m1", first), ("m2", second)]


# --- publish versus a quadratic re-scan oracle ---------------------------


class RescanOracle:
    """Replays publications independently: full re-scan after each one."""

    def __init__(self, tax, policy):
        self.tax = tax
        self.policy = policy
        self.log = []  # (owner, description, consumed flag) in order
        self.events = []

    def publish(self, owner, record):
        self.log.append([owner, record, False])
        new = self.log[-1]
        for old in self.log[:-1]:
            if old[2] or new[2] or old[0] == owner:
                continue
            match = match_pair(old[1], record, self.tax, self.policy)
            if match.kind is MatchType.NO_MATCH:
                continue
            old[2] = True
            new[2] = True
            self.events.append((old[0], owner, match))

    def pending(self):
        return [(owner, record) for owner, record, consumed in self.log if not consumed]


def test_publish_agrees_with_rescan_oracle(fitness_tax):
    rng = random.Random(11)
    members = [f"m{i}" for i in range(4)]
    types = ["Walking", "Jogging", "Fitness", "Cooking", "Location"]
    for _ in range(300):
        policy = MatchPolicy(
            allow_specialization=rng.random() < 0.5,
            require_time_overlap=rng.random() < 0.5,
        )
        community = NonPromotingCommunity(fitness_tax, policy)
        oracle = RescanOracle(fitness_tax, policy)
        for member in members:
            community.register(member)
        emitted = []
        for _ in range(rng.randint(1, 10)):
            owner = rng.choice(members)
            kind = rng.choice(("provide", "request", "both"))
            record = desc(
                provide=rng.choice(types) if kind in ("provide", "both") else None,
                request=rng.choice(types) if kind in ("request", "both") else None,
                start_hour=rng.randint(0, 12),
                end_hour=rng.randint(13, 23),
            )
            for event in community.publish(owner, record):
                emitted.append((event.members[0], event.members[1], event.kind))
            oracle.publish(owner, record)
        expected = [(a, b, match.kind) for a, b, match in oracle.events]
        assert emitted == expected
        assert community.pending() == oracle.pending()


def test_consumed_descriptions_never_match_again(fitness_tax):
    community = Community(fitness_tax)
    for member in ("m1", "m2", "m3"):
        community.register(member)
    community.publish("m1", desc(provide="Walking"))
    community.publish("m2", desc(request="Walking"))
    events = community.publish("m3", desc(request="Walking"))
    assert events == []  # m1's offer was already consumed by m2
    assert len(community.pending()) == 1


# --- indexed publish versus the reference re-scan publisher ---------------


SHAPES = ("provide", "request", "both", "same")


def _random_publication(rng, people, types, shapes=SHAPES, horizon=40):
    owner = rng.choice(people)
    shape = rng.choice(shapes)
    provide = rng.choice(types) if shape in ("provide", "both", "same") else None
    request = provide if shape == "same" else None
    if shape in ("request", "both"):
        request = rng.choice(types)
    start = rng.randint(0, horizon)
    end = start + rng.randint(0, 10)
    return owner, desc(provide, request, start_hour=start, end_hour=end)


def test_indexed_publish_agrees_with_reference_publisher():
    """12,600 random publications: same events and pending list after each, same activities.

    Random DAG taxonomies plus types outside them, both policy flags,
    windows that are often disjoint, group promotion with later joiners
    and venue binding (offers of Location itself and, in half the
    taxonomies, of its subtypes).  A last, larger trial publishes mostly
    group records over 30 types and a long horizon, so that each
    promotion happens while a hundred or more records are outstanding.
    """
    rng = random.Random(2024)
    for trial in range(101):
        big = trial == 100
        if big:
            rng = random.Random(2025)  # its own stream: the first 100 trials keep theirs
        size = 30 if big else 12
        names, edges = random_dag(rng, size, min_nodes=size if big else 2)
        if big or rng.random() < 0.5:  # some of the DAG's types become venues
            edges += [(name, "Location") for name in rng.sample(names, len(names) // 3)]
        tax = Taxonomy(edges)
        types = names + ["Location", "Outside", "Elsewhere"]  # the last two are in no taxonomy
        if big:
            policy, auto_promote = MatchPolicy(), True
        else:
            policy = MatchPolicy(
                allow_specialization=rng.random() < 0.5,
                require_time_overlap=rng.random() < 0.7,
            )
            auto_promote = rng.random() < 0.8
        community = (Community if auto_promote else NonPromotingCommunity)(tax, policy)
        reference = ReferenceCommunity(tax, policy, auto_promote)
        people = [f"m{i}" for i in range(rng.randint(2, 8))]
        for member in people:
            community.register(member)
            reference.register(member)
        shapes = SHAPES + ("same", "same") if big else SHAPES
        for _ in range(600 if big else 120):
            owner, record = _random_publication(rng, people, types, shapes, 600 if big else 40)
            assert community.publish(owner, record) == reference.publish(owner, record)
            assert community.pending() == reference.pending()
        assert community.pending() == reference.pending()
        assert community.activities == reference.activities


def test_bound_activity_is_no_longer_a_venue_candidate(fitness_tax, monkeypatch):
    community = Community(fitness_tax)
    for member in ("m1", "m2", "m3", "m4"):
        community.register(member)
    community.publish("m1", desc(provide="Walking", request="Walking"))
    community.publish("m2", desc(provide="Walking", request="Walking"))
    assert venue_of(community.publish("m3", desc(provide="Location")), "activity:Walking") == ["m3"]
    record = activity_record(community, "activity:Walking")
    examined = []

    def counting_match_pair(d1, d2, tax, pol):
        examined.append(d1)
        return match_pair(d1, d2, tax, pol)

    monkeypatch.setattr("fso.community.match_pair", counting_match_pair)
    assert community.publish("m4", desc(provide="Location")) == []
    assert record not in examined


def test_promotion_examines_only_index_candidates(fitness_tax, monkeypatch):
    community = Community(fitness_tax)
    cooks = [f"cook{i}" for i in range(50)]
    for member in cooks + ["w1", "w2"]:
        community.register(member)
    for member in cooks:
        community.publish(member, desc(provide="Cooking"))
    examined = []

    def counting_match_pair(d1, d2, tax, pol):
        examined.extend((d1, d2))
        return match_pair(d1, d2, tax, pol)

    monkeypatch.setattr("fso.community.match_pair", counting_match_pair)
    community.publish("w1", desc(provide="Walking", request="Walking"))
    events = community.publish("w2", desc(provide="Walking", request="Walking"))
    assert [e.kind for e in events] == [MatchType.GROUP]
    assert len(community.activities) == 1
    assert examined  # the second walker met the first
    assert not any(d.provide == "Cooking" for d in examined)


# --- the time-aware index --------------------------------------------------


def could_match(old, new, tax, policy):
    """What the index must return, from the definitions: a type of one side
    could serve a type of the other, and the windows meet when asked to."""

    def serves(provide, request):
        return provide is not None and request is not None and (
            tax.is_subtype(provide, request)
            or policy.allow_specialization and tax.is_subtype(request, provide)
        )

    return (serves(old.provide, new.request) or serves(new.provide, old.request)) and (
        not policy.require_time_overlap or old.overlaps(new)
    )


def assert_candidates_by_definition(community, record):
    """``_candidates`` is every outstanding record that could match, oldest first."""
    expected = [
        (owner, old) for owner, old in community.pending()
        if could_match(old, record, community.taxonomy, community.policy)
    ]
    assert [(e.owner, e.description) for e in community._candidates(record)] == expected


def window(provide=None, request=None, start=DAY, end=DAY):
    """A record over [start, end], to the microsecond and anywhere in time."""
    return ServiceDescription(creation_time=start, start_time=start, end_time=end,
                              creator="http://example.org/u", provide=provide, request=request)


MONTH = datetime(2013, 5, 1)
TREE = [(f"T{i}", f"T{(i - 1) // 2}") for i in range(1, 31)]  # binary, like match's 255 types
WORKLOAD_SHAPES = {"provide": 3, "request": 3, "exchange": 2, "group": 1, "location": 1}


def _workload_publication(rng, people, types):
    """A record shaped as the match workload's: 1-8 h somewhere in 30 days."""
    a, b = rng.choice(types), rng.choice(types)
    provide, request = {
        "provide": (a, None),
        "request": (None, a),
        "exchange": (a, b),
        "group": (a, a),
        "location": ("Location", None),
    }[rng.choices(list(WORKLOAD_SHAPES), list(WORKLOAD_SHAPES.values()))[0]]
    start = MONTH + timedelta(minutes=rng.randrange(30 * 24 * 60))
    end = start + timedelta(minutes=rng.randrange(60, 8 * 60))
    return rng.choice(people), window(provide, request, start, end)


@pytest.mark.parametrize("special", [True, False])
def test_index_agrees_with_both_oracles_at_workload_scale(special):
    """2,000 publications over 30 days: the indexed community against the
    reference publisher (promotion and venue binding included) and, with
    promotion off, against the rescan oracle; every tenth publication also
    checks the candidate list against its definition."""
    rng = random.Random(1300 + special)
    tax = Taxonomy(TREE)
    policy = MatchPolicy(allow_specialization=special)
    types = [f"T{i}" for i in range(31)]
    people = [f"m{i:02d}" for i in range(60)]
    community, reference = Community(tax, policy), ReferenceCommunity(tax, policy)
    unpromoted, rescan = NonPromotingCommunity(tax, policy), RescanOracle(tax, policy)
    for member in people:
        for registry in (community, reference, unpromoted):
            registry.register(member)
    events, unpromoted_events = [], []
    for n in range(2000):
        owner, record = _workload_publication(rng, people, types)
        if n % 10 == 0:
            assert_candidates_by_definition(community, record)
        published = community.publish(owner, record)
        assert published == reference.publish(owner, record)
        events += published
        unpromoted_events += unpromoted.publish(owner, record)
        rescan.publish(owner, record)
    assert community.pending() == reference.pending()
    assert community.activities == reference.activities
    for activity in community.activities:  # each activity served someone
        assert served_by(events, activity)
    assert any(venue_of(events, activity) for activity in community.activities)
    assert [(*e.members, e.match) for e in unpromoted_events] == rescan.events
    assert unpromoted.pending() == rescan.pending()


def test_index_agrees_with_reference_on_adversarial_windows():
    """Windows on an hourly grid, so that many only touch; zero-length
    windows; now and then a ten-year window that later gets consumed; both
    policy flags; promotion and venue binding by Location and its subtypes.
    Every publication checks the candidate list against its definition and
    the pending list against the reference."""
    rng = random.Random(1316)
    decade = timedelta(days=3650)
    for trial in range(40):
        names, edges = random_dag(rng, 10)
        edges += [(name, "Location") for name in rng.sample(names, 2)]
        tax = Taxonomy(edges)
        types = names + ["Location", "Outside"]
        policy = MatchPolicy(
            allow_specialization=rng.random() < 0.5,
            require_time_overlap=rng.random() < 0.75,
        )
        community, reference = Community(tax, policy), ReferenceCommunity(tax, policy)
        people = [f"m{i}" for i in range(rng.randint(2, 6))]
        for member in people:
            community.register(member)
            reference.register(member)
        for _ in range(150):
            owner, record = _random_publication(rng, people, types, SHAPES + ("same",))
            start = DAY + timedelta(hours=rng.randrange(24))
            length = decade if rng.random() < 0.03 else timedelta(hours=rng.choice((0, 0, 1, 2)))
            record = record._replace(start_time=start, end_time=start + length)
            assert_candidates_by_definition(community, record)
            assert community.publish(owner, record) == reference.publish(owner, record)
            assert community.pending() == reference.pending()
        assert community.pending() == reference.pending()
        assert community.activities == reference.activities


@pytest.mark.parametrize("offer, want", [
    ((8, 10), (10, 12)),   # the offer ends as the request starts
    ((10, 12), (8, 10)),   # the offer starts as the request ends
    ((10, 10), (8, 10)),   # a zero-length offer at the request's end
    ((10, 10), (10, 10)),  # two zero-length windows at one instant
    ((8, 12), (10, 10)),   # a zero-length request inside the offer
])
def test_windows_that_only_touch_still_match(fitness_tax, offer, want):
    community = Community(fitness_tax)
    community.register("m1")
    community.register("m2")
    community.publish("m1", desc(provide="Walking", start_hour=offer[0], end_hour=offer[1]))
    events = community.publish("m2", desc(request="Walking", start_hour=want[0], end_hour=want[1]))
    assert [e.kind for e in events] == [MatchType.SERVICE]


def test_a_window_that_misses_by_a_microsecond_is_not_a_candidate(fitness_tax):
    community = Community(fitness_tax)
    community.register("m1")
    community.register("m2")
    tick = timedelta(microseconds=1)
    before = window(provide="Walking", start=DAY, end=DAY + timedelta(hours=1) - tick)
    after = window(provide="Walking", start=DAY + timedelta(hours=2) + tick,
                   end=DAY + timedelta(hours=3))
    community.publish("m1", before)
    community.publish("m1", after)
    request = window(request="Walking", start=DAY + timedelta(hours=1),
                     end=DAY + timedelta(hours=2))
    assert community._candidates(request) == []
    assert community.publish("m2", request) == []


def test_without_required_overlap_every_type_candidate_is_seen(fitness_tax):
    loose = MatchPolicy(require_time_overlap=False)
    community = Community(fitness_tax, loose)
    community.register("m1")
    community.register("m2")
    offers = [window(provide="Walking", start=DAY + timedelta(days=d),
                     end=DAY + timedelta(days=d, hours=1)) for d in (0, 400, 4000)]
    for offer in offers:
        community.publish("m1", offer)
    late = window(request="Fitness", start=DAY + timedelta(days=9000),
                  end=DAY + timedelta(days=9000))
    assert [e.description for e in community._candidates(late)] == offers
    events = community.publish("m2", late)
    assert [(e.members, e.match.forward) for e in events] == [(("m1", "m2"), "Walking")]
    assert [d for _, d in community.pending()] == offers[1:]


def test_a_consumed_long_window_stops_widening_its_bucket(fitness_tax):
    """A ten-year offer widens the scan of its bucket only while it is
    outstanding, and costs one entry however long it is."""
    community = Community(fitness_tax)
    for member in ("m1", "m2", "m3"):
        community.register(member)
    decade = window(provide="Walking", start=DAY, end=DAY + timedelta(days=3650))
    short = window(provide="Walking", start=DAY, end=DAY + timedelta(hours=1))
    community.publish("m1", decade)
    community.publish("m2", short)
    bucket = community._by_provide["Walking"]
    assert len(bucket.items) == 2
    assert bucket.longest == timedelta(days=3650)
    later = DAY + timedelta(days=3000)
    events = community.publish("m3", window(request="Walking", start=later, end=later))
    assert [e.members for e in events] == [("m1", "m3")]
    assert community._by_provide["Walking"] is bucket
    assert len(bucket.items) == 1
    assert bucket.longest == timedelta(hours=1)


def test_a_long_window_at_the_start_of_time(fitness_tax):
    """Reaching back by the longest window from near ``datetime.min`` cannot
    go below it."""
    community = Community(fitness_tax)
    community.register("m1")
    community.register("m2")
    community.publish("m1", window(provide="Walking", start=datetime.min,
                                   end=datetime.min + timedelta(days=3650)))
    events = community.publish("m2", window(request="Walking", start=datetime.min + timedelta(days=1),
                                            end=datetime.max))
    assert [e.members for e in events] == [("m1", "m2")]


def test_venue_binding_keeps_the_activity_in_its_place(fitness_tax):
    """Binding the venue re-indexes the activity's record under its old
    sequence number: it stays older than records published before the
    binding, whatever their start times."""
    community = Community(fitness_tax)
    for member in ("m1", "m2", "m3", "m4", "m5"):
        community.register(member)
    community.publish("m1", desc(provide="Walking", request="Walking", start_hour=10, end_hour=20))
    community.publish("m2", desc(provide="Walking", request="Walking", start_hour=10, end_hour=20))
    early = desc(provide="Walking", start_hour=9, end_hour=11)  # starts before the activity
    community.publish("m3", early)
    community.publish("m4", desc(provide="Location", start_hour=12, end_hour=13))
    request = desc(request="Walking", start_hour=10, end_hour=11)
    assert [e.owner for e in community._candidates(request)] == ["activity:Walking", "m3"]
    events = community.publish("m5", request)
    assert [e.members for e in events] == [("activity:Walking", "m5")]


def test_no_pair_with_disjoint_windows_reaches_match_pair(monkeypatch):
    """Under ``require_time_overlap`` the index hands ``match_pair`` only
    records whose windows meet, in publication and in promotion alike."""
    examined = []

    def recording_match_pair(d1, d2, tax, pol):
        examined.append((d1, d2))
        return match_pair(d1, d2, tax, pol)

    monkeypatch.setattr("fso.community.match_pair", recording_match_pair)
    rng = random.Random(16)
    community = Community(Taxonomy(TREE), MatchPolicy(allow_specialization=True))
    people = [f"m{i:02d}" for i in range(60)]
    for member in people:
        community.register(member)
    events = []
    for _ in range(1500):
        events += community.publish(*_workload_publication(rng, people, [f"T{i}" for i in range(31)]))
    assert any(e.members[0].startswith("activity:") for e in events)  # promotion ran
    assert len(examined) >= len(events)
    assert all(d1.overlaps(d2) for d1, d2 in examined)
