"""Smoke tests for the graceful-degradation campaign (``repro degrade``)."""

from repro.experiments.degradation import (
    DegradationPoint,
    _schedule_for_level,
    mesh_links,
    run_degradation,
)
from repro.types import Direction


class TestMeshLinks:
    def test_directed_link_count(self):
        # 2*(2*w*h - w - h) directed mesh links.
        assert len(mesh_links((4, 4))) == 48
        assert len(mesh_links((8, 8))) == 224

    def test_no_local_or_dangling_links(self):
        links = mesh_links((3, 3))
        assert len(set(links)) == len(links)
        assert all(d is not Direction.LOCAL for _, d in links)


class TestScheduleForLevel:
    def test_level_zero_is_empty(self):
        order = [[link] for link in mesh_links((4, 4))]
        assert not _schedule_for_level(order, 0, 500)

    def test_last_kill_lands_late(self):
        order = [[link] for link in mesh_links((4, 4))]
        schedule = _schedule_for_level(order, 3, late_cycle=500)
        cycles = [f.cycle for f in schedule.sorted_by_cycle()]
        assert cycles == [0, 0, 500]
        assert all(f.kind == "link" for f in schedule.sorted_by_cycle())

    def test_group_dies_together(self):
        # A pillar-style group: every member shares the late cycle.
        order = [[(0, Direction.UP), (9, Direction.DOWN)],
                 [(1, Direction.UP), (10, Direction.DOWN)]]
        schedule = _schedule_for_level(order, 2, late_cycle=400)
        cycles = [f.cycle for f in schedule.sorted_by_cycle()]
        assert cycles == [0, 0, 400, 400]


class TestRunDegradation:
    def test_curve_structure(self):
        points = run_degradation(
            shape=(4, 4),
            max_kills=3,
            injection_rate=0.1,
            inject_cycles=300,
            seed=11,
            invariant_checks=True,
        )
        assert len(points) == 4
        assert [p.kills for p in points] == [0, 1, 2, 3]
        for p in points:
            assert isinstance(p, DegradationPoint)
            assert not p.hit_cycle_limit
            assert 0.0 <= p.delivery_rate <= 1.0
            assert 0.0 < p.reachable_fraction <= 1.0
            assert p.packets_delivered + p.packets_lost == p.packets_injected
            assert p.avg_latency > 0

        healthy = points[0]
        assert healthy.delivery_rate == 1.0
        assert healthy.latency_inflation == 1.0
        assert healthy.reconvergence_cycles == 0

        # Degradation is graceful: a handful of dead links in a 4x4 mesh
        # must not collapse delivery.
        for p in points[1:]:
            assert p.delivery_rate > 0.9
            assert p.latency_inflation >= 0.9
