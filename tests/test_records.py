"""The value types that validate their fields, each against the dataclass it
was (kept in ``tests/oracles.py``): for the same arguments both build or both
raise the same error, and what they build agrees field for field, in equality,
hashing and repr, and survives a copy, a pickle and a ``_replace``."""

import copy
import pickle
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from fso.descriptions import LocationSpec, ServiceDescription, ValidationError
from fso.diffusion import MAX_AGENTS, MAX_HORIZON, IsolationStrategy, ScenarioSpec, Topology
from fso.fractal import TriggeringCondition
from fso.mutualism import ActionCorrespondence, ActionSystem
from oracles import (
    ReferenceActionCorrespondence,
    ReferenceActionSystem,
    ReferenceLocationSpec,
    ReferenceScenarioSpec,
    ReferenceServiceDescription,
    ReferenceTriggeringCondition,
)

names = st.text("ab", max_size=2)
maybe_names = st.none() | names
day = {"min_value": datetime(2013, 5, 12), "max_value": datetime(2013, 5, 13)}
naive = st.datetimes(**day)
times = (naive | st.datetimes(**day, timezones=st.just(timezone.utc))
         | st.none() | st.integers(0, 1))
small = st.integers(-2, 3) | st.integers(4, 40)
integers = small | st.booleans() | st.sampled_from((1.0, "3"))


def call(*required, **optional):
    """``(args, kwargs)``: the ``required`` arguments, and a drawn subset of the
    ``optional`` ones by keyword."""
    return st.tuples(st.tuples(*required), st.fixed_dictionaries({}, optional=optional))


CASES = {
    "LocationSpec": (LocationSpec, ReferenceLocationSpec,
                     call(maybe_names, located_in=maybe_names)),
    "ServiceDescription": (ServiceDescription, ReferenceServiceDescription, st.one_of(
        call(*when, names, provide=maybe_names, request=maybe_names,
             location=st.none() | st.builds(LocationSpec, names.filter(bool), maybe_names))
        for when in ((naive,) * 3, (times,) * 3))),
    "ScenarioSpec": (ScenarioSpec, ReferenceScenarioSpec, st.one_of(
        call(st.sampled_from(Topology) | st.just("fractal"),
             horizon=ints | st.sampled_from((MAX_HORIZON, MAX_HORIZON + 1)),
             transmit_probability=probability,
             isolation_events=st.lists(st.tuples(st.integers(-1, 45), st.sampled_from(
                 IsolationStrategy)), max_size=4).map(tuple),
             seed=ints, agents=ints | st.sampled_from((MAX_AGENTS, MAX_AGENTS + 1)),
             cell_size=ints | st.integers(100, 1200), branching=ints)
        for ints, probability in ((small, st.floats(0.1, 1)),
                                  (integers, st.floats(-0.5, 1.5) | st.sampled_from(
                                      (1, 0, True, "0.5")))))),
    "TriggeringCondition": (TriggeringCondition, ReferenceTriggeringCondition, call(
        names, names, st.lists(names, max_size=3) | st.tuples(names),
        state=st.dictionaries(st.integers(-2, 4), names, max_size=3))),
    "ActionSystem": (ActionSystem, ReferenceActionSystem, call(
        names, st.dictionaries(names, st.sampled_from((-1, 0, 1, 2, True, 0.5, "1"))))),
    "ActionCorrespondence": (ActionCorrespondence, ReferenceActionCorrespondence, call(
        names, names, st.lists(st.tuples(names, names) | st.lists(names, max_size=3),
                               max_size=4))),
}


def outcome(kind, args, kwargs):
    """``(record, None)`` when ``kind`` builds, else ``(None, (error type, message))``."""
    try:
        return kind(*args, **kwargs), None
    except Exception as exc:
        return None, (type(exc), str(exc))


def hashed(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("record,reference,calls", CASES.values(), ids=CASES.keys())
@given(data=st.data())
@settings(max_examples=300)
def test_record_agrees_with_its_dataclass(record, reference, calls, data):
    args, kwargs = data.draw(calls)
    built, error = outcome(record, args, kwargs)
    expected, expected_error = outcome(reference, args, kwargs)
    assert error == expected_error
    if built is None:
        return
    assert built._values() == tuple(getattr(expected, name) for name in record.__slots__)
    assert repr(built) == repr(expected).removeprefix("Reference")
    twin = record(*args, **kwargs)
    assert twin == built and not twin != built and built != expected
    assert hashed(twin) == hashed(built) == hashed(expected)
    fields = dict(zip(record.__slots__, built._values()))
    for clone in (copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built)),
                  built._replace(), built._replace(**fields)):
        assert type(clone) is record and clone == built
    other_args, other_kwargs = data.draw(calls)
    other, _ = outcome(record, other_args, other_kwargs)
    other_expected, _ = outcome(reference, other_args, other_kwargs)
    if other is not None:
        assert (other == built) == (other_expected == expected)


def test_replace_checks_the_new_fields():
    record = ServiceDescription(datetime(2013, 5, 12), datetime(2013, 5, 12),
                                datetime(2013, 5, 12), "ann", provide="Walking")
    assert record._replace(request="Fitness").request == "Fitness"
    with pytest.raises(ValidationError, match=r"^both 'provide' and 'request' missing$"):
        record._replace(provide=None)
    with pytest.raises(TypeError):
        record._replace(venue="park")
