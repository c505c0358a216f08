"""Shared fixtures for the test suite.

Expensive artifacts (a small synthetic city and its fitted item
vectors) are built once per session; tests that need mutation work on
cheap derived objects.
"""

from __future__ import annotations

import pytest

from repro.core.arrays import CityArrays
from repro.core.assembly import assemble_composite_items, composite_items
from repro.core.builder import GroupTravel
from repro.core.query import GroupQuery
from repro.data.poi import POI, Category
from repro.data.synthetic import generate_city
from repro.profiles.generator import GroupGenerator


@pytest.fixture(scope="session")
def small_city():
    """A deterministic small Paris (roughly 100 POIs)."""
    return generate_city("paris", seed=42, scale=0.4)


@pytest.fixture(scope="session")
def app(small_city):
    """A GroupTravel system over the small city (quick LDA fit)."""
    return GroupTravel(small_city, seed=7, lda_iterations=30)


@pytest.fixture(scope="session")
def schema(app):
    return app.schema


@pytest.fixture()
def generator(schema):
    """A fresh, deterministic group generator per test."""
    return GroupGenerator(schema, seed=11)


@pytest.fixture(scope="session")
def default_query():
    return GroupQuery.of(acco=1, trans=1, rest=1, attr=3)


@pytest.fixture(scope="session")
def uniform_group(schema):
    return GroupGenerator(schema, seed=21).uniform_group(5)


@pytest.fixture(scope="session")
def non_uniform_group(schema):
    return GroupGenerator(schema, seed=22).non_uniform_group(5)


@pytest.fixture()
def session(app, uniform_group, default_query):
    """A fresh customization session on the uniform group's package."""
    profile = uniform_group.profile()
    package = app.kfc.build(profile, default_query)
    return app.customize(package, profile)


def make_poi(poi_id: int = 0, cat: Category | str = Category.RESTAURANT,
             lat: float = 48.85, lon: float = 2.35, cost: float = 1.0,
             poi_type: str = "french",
             tags: tuple[str, ...] = ("french", "wine")) -> POI:
    """Hand-rolled POI for unit tests that need precise geometry."""
    return POI(id=poi_id, name=f"poi-{poi_id}", cat=Category.parse(cat),
               lat=lat, lon=lon, type=poi_type, tags=tags, cost=cost)


@pytest.fixture()
def poi_factory():
    return make_poi


def assemble_cis(dataset, centroids, query, profile, item_index, **kwargs):
    """The assembly kernel's round as ``CompositeItem`` objects: its
    ``(k, slots)`` row matrix, materialized."""
    arrays = kwargs.get("arrays")
    if arrays is None:
        arrays = CityArrays.of(dataset, item_index)
    rows = assemble_composite_items(dataset, centroids, query, profile,
                                    item_index, **kwargs)
    return composite_items(dataset, arrays, centroids, rows)
