"""Tests for group queries and Composite Items."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.composite import CompositeItem
from repro.core.query import DEFAULT_QUERY, GroupQuery
from repro.data.poi import CATEGORIES, Category


class TestGroupQuery:
    def test_of_constructor(self):
        q = GroupQuery.of(acco=1, trans=1, rest=2, attr=1, budget=120)
        assert q.count("acco") == 1
        assert q.count("rest") == 2
        assert q.total_items() == 5
        assert q.budget == 120

    def test_default_query_matches_paper(self):
        assert DEFAULT_QUERY.count("acco") == 1
        assert DEFAULT_QUERY.count("trans") == 1
        assert DEFAULT_QUERY.count("rest") == 1
        assert DEFAULT_QUERY.count("attr") == 3
        assert not DEFAULT_QUERY.has_budget

    def test_unrequested_category_is_zero(self):
        q = GroupQuery.of(rest=2)
        assert q.count("acco") == 0
        assert q.requested_categories() == (Category.RESTAURANT,)

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError, match="at least one POI"):
            GroupQuery(counts={})

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            GroupQuery.of(rest=-1, attr=1)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            GroupQuery.of(rest=1, budget=-5)

    def test_nan_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            GroupQuery.of(rest=1, budget=float("nan"))

    def test_string_form(self):
        q = GroupQuery.of(acco=1, trans=1, rest=2, attr=1, budget=120)
        assert str(q) == "<1 acco, 1 trans, 2 rest, 1 attr, $120>"
        assert "inf" in str(GroupQuery.of(rest=1))

    def test_counts_accept_string_keys(self):
        q = GroupQuery(counts={"rest": 2})
        assert q.count(Category.RESTAURANT) == 2


def _two_pass_from_dict(data):
    """``GroupQuery.from_dict`` as it was before it parsed each category
    once: every key parsed and every count made an ``int``, then the
    constructor parses and checks them all again."""
    budget = data.get("budget")
    return GroupQuery(
        counts={Category.parse(cat): int(n)
                for cat, n in data["counts"].items()},
        budget=math.inf if budget is None else float(budget),
    )


_QUERIES = st.builds(
    GroupQuery,
    counts=st.dictionaries(st.sampled_from(CATEGORIES),
                           st.integers(0, 9)).filter(
                               lambda c: sum(c.values()) > 0),
    budget=st.one_of(st.just(math.inf),
                     st.floats(0.0, 1e6, allow_nan=False)))

#: Wire-ish counts, good and bad: unknown and non-string keys,
#: negative, float, string, bool and missing counts.
_RAW_COUNTS = st.dictionaries(
    st.one_of(st.sampled_from([c.value for c in CATEGORIES]),
              st.sampled_from(["museum", "", "ACCO"]), st.integers(0, 3)),
    st.one_of(st.integers(-2, 5), st.floats(-2.0, 5.0, allow_nan=False),
              st.sampled_from(["3", "x", None, True])),
    max_size=5)


class TestWireParse:
    @given(query=_QUERIES)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, query):
        again = GroupQuery.from_dict(query.to_dict())
        assert again == query
        assert list(again.counts) == list(query.counts)
        assert all(type(c) is Category and type(n) is int
                   for c, n in again.counts.items())

    @given(counts=_RAW_COUNTS,
           budget=st.one_of(st.none(), st.floats(allow_nan=True),
                            st.integers(-5, 50), st.just("12")))
    @settings(max_examples=300, deadline=None)
    def test_rejects_and_accepts_as_the_two_pass_parse(self, counts,
                                                       budget):
        data = {"counts": counts, "budget": budget}
        try:
            want = _two_pass_from_dict(data)
        except Exception as exc:  # noqa: BLE001 - compared below
            with pytest.raises(type(exc)) as raised:
                GroupQuery.from_dict(data)
            assert str(raised.value) == str(exc)
            return
        got = GroupQuery.from_dict(data)
        assert got == want
        assert list(got.counts) == list(want.counts)


class TestCompositeItem:
    def _ci(self, poi_factory, query=None):
        pois = [
            poi_factory(poi_id=1, cat="acco", cost=2.0, poi_type="hotel"),
            poi_factory(poi_id=2, cat="trans", cost=1.0, poi_type="bus stop"),
            poi_factory(poi_id=3, cat="rest", cost=3.0),
            poi_factory(poi_id=4, cat="attr", cost=1.5, poi_type="monument"),
            poi_factory(poi_id=5, cat="attr", cost=1.5, poi_type="viewpoint",
                        lat=48.86),
            poi_factory(poi_id=6, cat="attr", cost=1.0, poi_type="art museum",
                        lat=48.87),
        ]
        return CompositeItem(pois)

    def test_duplicates_rejected(self, poi_factory):
        poi = poi_factory(poi_id=1)
        with pytest.raises(ValueError, match="same POI twice"):
            CompositeItem([poi, poi])

    def test_empty_needs_centroid(self):
        with pytest.raises(ValueError, match="explicit centroid"):
            CompositeItem([])
        ci = CompositeItem([], centroid=(48.85, 2.35))
        assert len(ci) == 0

    def test_default_centroid_is_mean(self, poi_factory):
        a = poi_factory(poi_id=1, lat=48.80, lon=2.30)
        b = poi_factory(poi_id=2, lat=48.90, lon=2.40)
        ci = CompositeItem([a, b])
        assert ci.centroid == (pytest.approx(48.85), pytest.approx(2.35))

    def test_total_cost_and_counts(self, poi_factory):
        ci = self._ci(poi_factory)
        assert ci.total_cost() == pytest.approx(10.0)
        counts = ci.category_counts()
        assert counts[Category.ATTRACTION] == 3

    def test_validity_against_query(self, poi_factory):
        ci = self._ci(poi_factory)
        good = GroupQuery.of(acco=1, trans=1, rest=1, attr=3, budget=10.0)
        assert ci.is_valid(good)
        assert not ci.is_valid(GroupQuery.of(acco=1, trans=1, rest=1, attr=3,
                                             budget=9.9))
        assert not ci.is_valid(GroupQuery.of(acco=2, trans=1, rest=1, attr=3))

    def test_validity_infinite_budget(self, poi_factory):
        ci = self._ci(poi_factory)
        assert ci.is_valid(GroupQuery.of(acco=1, trans=1, rest=1, attr=3,
                                         budget=math.inf))

    def test_membership(self, poi_factory):
        ci = self._ci(poi_factory)
        assert 1 in ci
        assert ci.pois[0] in ci
        assert 99 not in ci

    def test_without_preserves_centroid(self, poi_factory):
        ci = self._ci(poi_factory)
        smaller = ci.without(3)
        assert len(smaller) == len(ci) - 1
        assert smaller.centroid == ci.centroid
        with pytest.raises(KeyError):
            ci.without(99)

    def test_adding_rejects_duplicate(self, poi_factory):
        ci = self._ci(poi_factory)
        with pytest.raises(ValueError, match="already"):
            ci.adding(ci.pois[0])

    def test_replacing(self, poi_factory):
        ci = self._ci(poi_factory)
        new = poi_factory(poi_id=50, cat="rest")
        replaced = ci.replacing(3, new)
        assert 3 not in replaced
        assert 50 in replaced
        assert len(replaced) == len(ci)

    def test_internal_distance_non_negative(self, poi_factory):
        assert self._ci(poi_factory).internal_distance() >= 0.0
