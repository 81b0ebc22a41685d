"""Focused tests for A0's sorted-phase machinery, incl. resumption."""


from repro.algorithms.fa import SortedPhaseState, run_sorted_phase
from repro.workloads.skeletons import independent_database


class TestResumption:
    def test_resume_extends_rather_than_restarts(self, db2):
        session = db2.session()
        state = run_sorted_phase(session, 3)
        depth_after_3 = state.depth
        cost_after_3 = session.tracker.snapshot().sorted_cost

        run_sorted_phase(session, 8, state=state)
        assert state.depth >= depth_after_3
        extra = session.tracker.snapshot().sorted_cost - cost_after_3
        # Resumption pays only the marginal depth, not a fresh run.
        assert extra == 2 * (state.depth - depth_after_3)

    def test_resumed_state_equals_one_shot(self, db2):
        resumed_session = db2.session()
        state = run_sorted_phase(resumed_session, 3)
        run_sorted_phase(resumed_session, 8, state=state)

        fresh_session = db2.session()
        fresh = run_sorted_phase(fresh_session, 8)

        assert state.depth == fresh.depth
        assert state.matched == fresh.matched
        assert state.grades == fresh.grades
        assert state.deliveries == fresh.deliveries

    def test_no_op_when_target_already_met(self, db2):
        session = db2.session()
        state = run_sorted_phase(session, 5)
        before = session.tracker.snapshot().sorted_cost
        run_sorted_phase(session, 5, state=state)
        assert session.tracker.snapshot().sorted_cost == before

    def test_fresh_state_created_when_none(self, db2):
        state = run_sorted_phase(db2.session(), 2)
        assert isinstance(state, SortedPhaseState)
        assert len(state.matched) >= 2


class TestInvariants:
    def test_matched_objects_seen_everywhere(self, db3):
        state = run_sorted_phase(db3.session(), 6)
        for obj in state.matched:
            known_in = {i for i, grades in enumerate(state.grades) if obj in grades}
            assert known_in == {0, 1, 2}
            assert state.deliveries[obj] == 3

    def test_order_by_list_matches_rankings(self, db2):
        state = run_sorted_phase(db2.session(), 4)
        for i in range(2):
            expected = [it.obj for it in db2.ranking(i)[: state.depth]]
            assert state.order_by_list[i] == expected

    def test_seen_grades_are_true_grades(self, db2):
        state = run_sorted_phase(db2.session(), 4)
        for i, grades in enumerate(state.grades):
            assert set(grades) <= set(state.deliveries)
            for obj, grade in grades.items():
                assert grade == db2.grade(i, obj)

    def test_mid_round_stop_saves_at_most_m_minus_one(self, db3):
        full_state = run_sorted_phase(db3.session(), 5)
        session = db3.session()
        run_sorted_phase(session, 5, stop_mid_round=True)
        full_cost = 3 * full_state.depth
        early_cost = session.tracker.snapshot().sorted_cost
        assert full_cost - 2 <= early_cost <= full_cost

    def test_mid_round_stop_lands_on_the_kth_match(self, db3):
        rankings = [[item.obj for item in db3.ranking(i)] for i in range(3)]
        for k in range(1, 16):
            # Reference: read the lists round-robin, one access at a
            # time, and stop at the access that completes the k-th match.
            deliveries, matches, accesses, depth = {}, 0, 0, 0
            while matches < k:
                for order in rankings:
                    obj = order[depth]
                    accesses += 1
                    deliveries[obj] = deliveries.get(obj, 0) + 1
                    if deliveries[obj] == 3:
                        matches += 1
                        if matches == k:
                            break
                depth += 1
            session = db3.session()
            state = run_sorted_phase(session, k, stop_mid_round=True)
            assert session.tracker.snapshot().sorted_cost == accesses
            assert len(state.matched) == k
            assert state.depth == depth

    def test_depth_matches_skeleton_match_depth(self):
        for seed in range(10):
            db = independent_database(2, 120, seed=seed)
            state = run_sorted_phase(db.session(), 4)
            assert state.depth == db.skeleton().match_depth(4)
