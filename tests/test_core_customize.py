"""Tests for the customization operators and profile refinement."""

import numpy as np
import pytest

from repro.core.customize import InteractionKind
from repro.core.refine import refine_batch, refine_individual
from repro.data.poi import CATEGORIES, Category
from repro.geo.rectangle import Rectangle
from repro.profiles.consensus import ConsensusMethod


class TestRemove:
    def test_remove_drops_poi_and_logs(self, session):
        victim = session.package[0].pois[0]
        removed = session.remove(0, victim.id, actor=2)
        assert removed.id == victim.id
        assert victim.id not in session.package[0]
        assert session.interactions[-1].kind is InteractionKind.REMOVE
        assert session.interactions[-1].actor == 2
        assert session.removed_pois() == [victim]

    def test_remove_missing_poi_raises(self, session):
        with pytest.raises(StopIteration):
            session.remove(0, 10**9)


class TestAdd:
    def test_suggestions_exclude_current_members(self, session):
        current = set(session.package[0].poi_ids)
        suggestions = session.suggest_additions(0, k=5)
        assert suggestions
        assert all(p.id not in current for p in suggestions)

    def test_suggestions_respect_category_filter(self, session):
        suggestions = session.suggest_additions(0, k=5,
                                                category=Category.RESTAURANT)
        assert all(p.cat == Category.RESTAURANT for p in suggestions)

    def test_add_appends_and_logs(self, session):
        poi = session.suggest_additions(0, k=1)[0]
        before = len(session.package[0])
        session.add(0, poi, actor=1)
        assert len(session.package[0]) == before + 1
        assert session.added_pois(actor=1) == [poi]


class TestReplace:
    def test_recommendation_is_same_category_nearest(self, session, app):
        target = session.package[1].pois[2]
        suggestion = session.recommend_replacement(1, target.id)
        assert suggestion is not None
        assert suggestion.cat == target.cat
        assert suggestion.id not in session.package[1]

    def test_replace_uses_recommendation(self, session):
        target = session.package[1].pois[2]
        replacement = session.replace(1, target.id, actor=0)
        assert target.id not in session.package[1]
        assert replacement.id in session.package[1]
        last = session.interactions[-1]
        assert last.kind is InteractionKind.REPLACE
        assert last.added == (replacement,)
        assert last.removed == (target,)

    def test_replace_explicit(self, session, app):
        target = session.package[0].pois[0]
        explicit = next(
            p for p in app.dataset.by_category(target.cat)
            if p.id not in session.package[0]
        )
        out = session.replace(0, target.id, replacement=explicit)
        assert out is explicit


class TestGenerate:
    def test_generate_appends_valid_ci(self, session, app, default_query):
        center = app.dataset.coordinates().mean(axis=0)
        rect = Rectangle.around(float(center[0]), float(center[1]),
                                0.05, 0.05)
        before = session.package.k
        index = session.generate(rect, actor=3)
        assert session.package.k == before + 1
        new_ci = session.package[index]
        assert new_ci.is_valid(default_query)
        # Generated CI anchors at the rectangle centre.
        assert new_ci.centroid == pytest.approx(rect.center)
        assert session.interactions[-1].kind is InteractionKind.GENERATE
        assert len(session.added_pois(actor=3)) == len(new_ci)

    def test_delete_composite_item(self, session):
        before_k = session.package.k
        n_pois = len(session.package[0])
        session.delete_composite_item(0, actor=1)
        assert session.package.k == before_k - 1
        removes = [i for i in session.interactions
                   if i.kind is InteractionKind.REMOVE]
        assert len(removes) == n_pois

    def test_actors_listing(self, session):
        session.remove(0, session.package[0].pois[0].id, actor=4)
        session.remove(0, session.package[0].pois[0].id, actor=2)
        assert session.actors() == [2, 4]


class TestRefinement:
    def _run_interactions(self, session):
        added = session.suggest_additions(0, k=1,
                                          category=Category.RESTAURANT)[0]
        session.add(0, added, actor=0)
        victim = next(p for p in session.package[1].pois
                      if p.cat == Category.ATTRACTION)
        session.remove(1, victim.id, actor=1)
        return added, victim

    def test_batch_moves_profile_toward_added(self, session, app):
        added, removed = self._run_interactions(session)
        old = session.profile
        new = refine_batch(old, session.interactions, app.item_index)
        add_vec = app.item_index.vector(added)
        delta_rest = new.vector("rest") - old.vector("rest")
        assert np.allclose(delta_rest, add_vec)
        delta_attr = new.vector("attr") - old.vector("attr")
        assert (delta_attr <= 1e-12).all()  # only a removal happened there

    def test_batch_clips_at_zero(self, session, app):
        _, removed = self._run_interactions(session)
        new = refine_batch(session.profile, session.interactions,
                           app.item_index)
        assert (new.vector("attr") >= 0.0).all()

    def test_batch_untouched_categories_stable(self, session, app):
        self._run_interactions(session)
        new = refine_batch(session.profile, session.interactions,
                           app.item_index)
        assert np.allclose(new.vector("acco"), session.profile.vector("acco"))

    def test_individual_refines_only_actors(self, session, app,
                                            uniform_group):
        self._run_interactions(session)
        refined_group, profile = refine_individual(
            uniform_group, session.interactions, app.item_index,
            method=ConsensusMethod.AVERAGE,
        )
        # Actors 0 and 1 changed; the rest are identical objects.
        assert refined_group.members[0] is not uniform_group.members[0]
        assert refined_group.members[1] is not uniform_group.members[1]
        for i in range(2, len(uniform_group)):
            assert refined_group.members[i] is uniform_group.members[i]
        # Member vectors stay inside [0, 1].
        for member in refined_group.members:
            for cat in CATEGORIES:
                vec = member.vector(cat)
                assert (vec >= 0.0).all() and (vec <= 1.0).all()

    def test_individual_without_actors_is_identity(self, session, app,
                                                   uniform_group):
        refined_group, profile = refine_individual(
            uniform_group, [], app.item_index
        )
        assert refined_group.members == uniform_group.members

    def test_facade_wrappers(self, app, session, uniform_group):
        self._run_interactions(session)
        batch = app.refine_profile_batch(session.profile, session)
        group2, individual = app.refine_profile_individual(
            uniform_group, session
        )
        assert batch.concatenated().shape == individual.concatenated().shape
