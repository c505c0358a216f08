"""Group generation and spec resolution against
``tests/profile_oracle.py``: bit-identical (``tobytes``) for any spec.

The generator draws a group as one ``(size, D)`` member matrix, the
non-uniform admission caches pair cosines, and a spec's consensus
profile comes from the matrix's category slices; the oracle draws
member by member, recomputes the pair average for every candidate and
restacks one matrix per category.  Specs cover sizes 1-12, both
uniformities, all four consensus methods and explicit ``w1``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import profile_oracle
from repro.profiles.consensus import ConsensusMethod
from repro.profiles.generator import GroupGenerator
from repro.profiles.group import GroupProfile
from repro.service.registry import CityRegistry
from repro.service.schema import GroupSpec

specs = st.builds(
    GroupSpec,
    size=st.integers(1, 12),
    uniform=st.booleans(),
    seed=st.integers(0, 2 ** 40),
    method=st.sampled_from([m.value for m in ConsensusMethod]),
    w1=st.one_of(st.none(), st.floats(0.0, 1.0)),
)


@pytest.fixture(scope="module")
def registry(app):
    registry = CityRegistry(seed=7, scale=0.4, lda_iterations=30)
    registry.register(app.dataset, app.item_index, name="paris")
    return registry


def _bytes(profile) -> bytes:
    return profile.concatenated().tobytes()


class TestGeneratorMatchesOracle:
    @settings(max_examples=120, deadline=None)
    @given(spec=specs)
    def test_spec_profiles(self, schema, registry, spec):
        expected = profile_oracle.spec_profile(
            schema, spec.size, spec.uniform, spec.seed, spec.method, spec.w1)
        members = GroupGenerator(schema, seed=spec.seed).member_matrix(
            spec.size, spec.uniform)
        assert members.shape == (spec.size, schema.total_size())
        got = GroupProfile.from_members(schema, members, spec.method,
                                        w1=spec.w1)
        assert _bytes(got) == _bytes(expected)
        assert _bytes(registry.group_profile("paris", spec)) == _bytes(expected)

    @settings(max_examples=60, deadline=None)
    @given(spec=specs)
    def test_groups(self, schema, spec):
        expected = profile_oracle.group(
            profile_oracle.Generator(schema, seed=spec.seed), spec.size,
            spec.uniform)
        got = GroupGenerator(schema, seed=spec.seed).group(spec.size,
                                                           spec.uniform)
        assert got.name == expected.name
        assert [_bytes(m) for m in got] == [_bytes(m) for m in expected]
        assert (_bytes(got.profile(spec.method, w1=spec.w1))
                == _bytes(profile_oracle.profile(expected, spec.method,
                                                 w1=spec.w1)))

    def test_generators_continue_in_step(self, schema):
        """After a group, the generator's stream sits where the oracle's
        does: the next groups match too."""
        gen = GroupGenerator(schema, seed=3)
        ref = profile_oracle.Generator(schema, seed=3)
        for size, uniform in [(4, False), (7, True), (12, False), (1, True)]:
            got = gen.group(size, uniform)
            expected = profile_oracle.group(ref, size, uniform)
            assert [_bytes(m) for m in got] == [_bytes(m) for m in expected]
