"""Tests for the collaboration models (the paper's future-work sketch)."""

import pytest

from repro.core.collaboration import (
    CollaborationModel,
    CustomizationRequest,
    run_collaboration,
    run_hybrid,
    run_sequential,
    run_star,
)
from repro.core.customize import InteractionKind


def remove_request(session, actor=0, ci=0, slot=0):
    return CustomizationRequest(
        actor=actor, kind=InteractionKind.REMOVE, ci_index=ci,
        poi_id=session.package[ci].pois[slot].id,
    )


def add_request(session, actor=0, ci=0):
    poi = session.suggest_additions(ci, k=1)[0]
    return CustomizationRequest(actor=actor, kind=InteractionKind.ADD,
                                ci_index=ci, poi=poi)


class TestRequest:
    def test_operand_validation(self):
        with pytest.raises(ValueError, match="missing its operand"):
            CustomizationRequest(actor=0, kind=InteractionKind.REMOVE)
        with pytest.raises(ValueError, match="missing its operand"):
            CustomizationRequest(actor=0, kind=InteractionKind.ADD)

    def test_conflict_detection(self, session):
        a = remove_request(session, actor=0, ci=0, slot=0)
        b = CustomizationRequest(actor=1, kind=InteractionKind.REPLACE,
                                 ci_index=0, poi_id=a.poi_id)
        c = remove_request(session, actor=2, ci=1, slot=0)
        assert a.conflicts_with(b)
        assert not a.conflicts_with(c)


class TestStar:
    def test_moderator_gates_requests(self, session):
        reqs = [remove_request(session, actor=1, ci=0, slot=0),
                remove_request(session, actor=2, ci=1, slot=0)]
        outcomes = run_star(session, reqs,
                            moderator=lambda r: r.actor == 1)
        assert outcomes[0].applied
        assert not outcomes[1].applied
        assert "moderator" in outcomes[1].reason
        # Only the approved removal reached the log.
        assert len(session.interactions) == 1

    def test_moderator_own_requests_bypass(self, session):
        req = remove_request(session, actor=9, ci=0, slot=0)
        outcomes = run_star(session, [req], moderator=lambda r: False,
                            moderator_actor=9)
        assert outcomes[0].applied


class TestSequential:
    def test_pipeline_applies_in_turn_order(self, session):
        first = [remove_request(session, actor=0, ci=0, slot=0)]
        second = [add_request(session, actor=1, ci=0)]
        outcomes = run_sequential(session, [first, second])
        assert all(o.applied for o in outcomes)
        assert [i.actor for i in session.interactions] == [0, 1]

    def test_stale_request_reported_not_raised(self, session):
        victim = session.package[0].pois[0]
        duplicate = CustomizationRequest(
            actor=1, kind=InteractionKind.REMOVE, ci_index=0,
            poi_id=victim.id,
        )
        outcomes = run_sequential(session, [
            [remove_request(session, actor=0, ci=0, slot=0)],
            [duplicate],
        ])
        assert outcomes[0].applied
        assert not outcomes[1].applied
        assert "stale" in outcomes[1].reason


class TestHybrid:
    def test_conflicting_requests_resolved(self, session):
        target = session.package[0].pois[0]
        a = CustomizationRequest(actor=0, kind=InteractionKind.REMOVE,
                                 ci_index=0, poi_id=target.id)
        b = CustomizationRequest(actor=1, kind=InteractionKind.REPLACE,
                                 ci_index=0, poi_id=target.id)
        outcomes = run_hybrid(session, [a, b])
        assert outcomes[0].applied
        assert not outcomes[1].applied
        assert "conflicts" in outcomes[1].reason

    def test_priority_overrides_arrival(self, session):
        target = session.package[0].pois[0]
        a = CustomizationRequest(actor=0, kind=InteractionKind.REMOVE,
                                 ci_index=0, poi_id=target.id)
        b = CustomizationRequest(actor=1, kind=InteractionKind.REPLACE,
                                 ci_index=0, poi_id=target.id)
        outcomes = run_hybrid(session, [a, b],
                              priority=lambda r: float(r.actor))
        assert not outcomes[0].applied
        assert outcomes[1].applied

    def test_non_conflicting_all_applied(self, session):
        reqs = [remove_request(session, actor=0, ci=0, slot=0),
                remove_request(session, actor=1, ci=1, slot=0),
                add_request(session, actor=2, ci=2)]
        outcomes = run_hybrid(session, reqs)
        assert all(o.applied for o in outcomes)


class TestDispatch:
    def test_sequential_grouping_by_actor(self, session):
        reqs = [remove_request(session, actor=1, ci=0, slot=0),
                remove_request(session, actor=0, ci=1, slot=0)]
        outcomes = run_collaboration(CollaborationModel.SEQUENTIAL,
                                     session, reqs)
        assert all(o.applied for o in outcomes)

    def test_star_via_dispatch(self, session):
        reqs = [remove_request(session, actor=0, ci=0, slot=0)]
        outcomes = run_collaboration("star", session, reqs,
                                     moderator=lambda r: True)
        assert outcomes[0].applied

    def test_hybrid_via_dispatch(self, session):
        reqs = [remove_request(session, actor=0, ci=0, slot=0)]
        outcomes = run_collaboration("hybrid", session, reqs)
        assert outcomes[0].applied

    def test_refinement_consumes_collaboration_log(self, session, app):
        reqs = [remove_request(session, actor=0, ci=0, slot=0),
                add_request(session, actor=1, ci=1)]
        run_collaboration("hybrid", session, reqs)
        refined = app.refine_profile_batch(session.profile, session)
        assert refined is not session.profile
