"""The wire parse memo serves exactly what a fresh parse serves.

``BuildRequest.from_dict`` parses its query and group spec through two
bounded memos (:class:`~repro.service.schema.ParseMemo`), so a warm hit
re-sending a value it sent before is not parsed again.  A memo keyed on
plain values would answer ``"seed": true`` with the spec parsed from
``"seed": 1`` (``True == 1`` and ``hash(True) == hash(1)``), so these
properties prime each memo with an accepted value and then parse a
variant that compares equal to it, or stands in for it: a bool for an
int, ``1.0`` for ``1``, a string, NaN or ``-0.0`` budget, an unhashable
list, reordered counts.  The variant must get what the unmemoized
parser gives it -- the same object fields (``repr``, so a sign of zero
counts), derived values and cache-key part, or the same exception type
and message.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiles.consensus import ConsensusMethod
from repro.service.schema import (
    PARSE_MEMO_SIZE,
    BuildRequest,
    GroupSpec,
    _parse_query,
    _wire_query,
    _wire_spec,
)

MEMO_SETTINGS = settings(max_examples=300, deadline=None)

CATS = ("acco", "trans", "rest", "attr")


def _query_outcome(parse, data) -> tuple:
    try:
        query = parse(data)
    except Exception as exc:
        return ("raise", type(exc), str(exc))
    return ("ok", repr(query.counts), repr(query.budget),
            query.requested_categories(), query.requested_counts(),
            query.key())


def _spec_outcome(parse, data) -> tuple:
    try:
        spec = parse(data)
    except Exception as exc:
        return ("raise", type(exc), str(exc))
    return ("ok", repr(spec))


def _stand_ins(value) -> list:
    """Wire values that compare equal to ``value`` or stand in for it."""
    out = [[value], str(value)]
    if type(value) is int:
        out += [float(value), bool(value)] + ([-0.0] if value == 0 else [])
    elif type(value) is float:
        out += [int(value) if value.is_integer() else value + 0.5,
                math.nan, -value, str(-value)]
        if value in (0.0, 1.0):
            out.append(bool(value))
    elif type(value) is bool:
        out += [int(value), float(value), str(value).lower()]
    elif value is None:
        out += [0, 0.0, -0.0, False, math.nan, "inf"]
    return out


@st.composite
def wire_queries(draw) -> dict:
    counts = {cat: draw(st.integers(0, 3)) for cat in CATS}
    if not any(counts.values()):
        counts["attr"] = 1
    order = draw(st.permutations(CATS))
    budget = draw(st.sampled_from([None, 0, 0.0, 1, 1.0, 12.5, 30]))
    return {"counts": {cat: counts[cat] for cat in order}, "budget": budget}


@st.composite
def query_variants(draw, base: dict) -> dict:
    field = draw(st.sampled_from(CATS + ("budget", "order")))
    variant = {"counts": dict(base["counts"]), "budget": base["budget"]}
    if field == "order":
        order = draw(st.permutations(list(variant["counts"])))
        variant["counts"] = {cat: variant["counts"][cat] for cat in order}
    elif field == "budget":
        variant["budget"] = draw(st.sampled_from(_stand_ins(base["budget"])))
    else:
        variant["counts"][field] = draw(st.sampled_from(
            _stand_ins(base["counts"][field])))
    return variant


@MEMO_SETTINGS
@given(data=st.data(), base=wire_queries())
def test_a_query_variant_gets_a_fresh_parse(data, base):
    primed = _wire_query(base)
    assert _query_outcome(lambda d: primed, base) == _query_outcome(
        _parse_query, base)
    variant = data.draw(query_variants(base), label="variant")
    assert _query_outcome(_wire_query, variant) == _query_outcome(
        _parse_query, variant)
    # The primed value is still served as a fresh parse serves it.
    assert _query_outcome(_wire_query, base) == _query_outcome(
        _parse_query, base)


SPEC_FIELDS = ("size", "uniform", "seed", "method", "w1")


@st.composite
def wire_specs(draw) -> dict:
    spec = {"size": draw(st.integers(1, 8)), "uniform": draw(st.booleans()),
            "seed": draw(st.integers(0, 3)),
            "method": draw(st.sampled_from([m.value for m in ConsensusMethod])),
            "w1": draw(st.sampled_from([None, 0.0, 0.5, 1.0]))}
    kept = draw(st.lists(st.sampled_from(SPEC_FIELDS), unique=True,
                         min_size=1))
    return {name: spec[name] for name in kept}


@MEMO_SETTINGS
@given(data=st.data(), base=wire_specs())
def test_a_spec_variant_gets_a_fresh_parse(data, base):
    primed = _wire_spec(base)
    assert repr(primed) == repr(GroupSpec.from_dict(base))
    field = data.draw(st.sampled_from(SPEC_FIELDS), label="field")
    current = base.get(field, GroupSpec.__dataclass_fields__[field].default)
    variant = dict(base)
    variant[field] = data.draw(
        st.sampled_from(_stand_ins(current) + [None]), label="value")
    assert _spec_outcome(_wire_spec, variant) == _spec_outcome(
        GroupSpec.from_dict, variant)
    assert _spec_outcome(_wire_spec, base) == _spec_outcome(
        GroupSpec.from_dict, base)


def test_an_equal_wire_value_is_parsed_once():
    payload = {"city": "paris", "group_spec": {"size": 4, "seed": 9},
               "query": {"counts": {"acco": 1, "attr": 2}, "budget": None}}
    first = BuildRequest.from_dict(payload)
    again = BuildRequest.from_dict({
        "city": "paris", "group_spec": dict(payload["group_spec"]),
        "query": {"counts": {"acco": 1, "attr": 2}, "budget": None}})
    assert again.query is first.query
    assert again.group_spec is first.group_spec


def test_a_zero_float_is_not_memoized():
    """``-0.0 == 0.0`` with one hash, but the sign reaches the reply."""
    for budget in (0.0, -0.0, 0.0):
        query = _wire_query({"counts": {"attr": 1}, "budget": budget})
        assert math.copysign(1.0, query.budget) == math.copysign(1.0, budget)
    for w1 in (0.0, -0.0, 0.0):
        spec = _wire_spec({"w1": w1})
        assert math.copysign(1.0, spec.w1) == math.copysign(1.0, w1)


def test_both_memos_stay_bounded():
    for i in range(10 * PARSE_MEMO_SIZE):
        _wire_query({"counts": {"attr": 1 + i % 3}, "budget": 1.0 + i})
        _wire_spec({"size": 1 + i % 8, "seed": i})
        assert len(_wire_query) <= PARSE_MEMO_SIZE
        assert len(_wire_spec) <= PARSE_MEMO_SIZE
    assert len(_wire_query) == len(_wire_spec) == PARSE_MEMO_SIZE
