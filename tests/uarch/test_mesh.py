"""Tests for the wormhole mesh (OPN/OCN substrate)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.uarch.mesh import Packet, WormholeMesh


def drain(mesh, nodes, cycles):
    got = []
    for _ in range(cycles):
        mesh.step()
        for node in nodes:
            got.extend(mesh.take_delivered(node))
    return got


class TestLatency:
    def test_one_hop_one_cycle(self):
        mesh = WormholeMesh(5, 5)
        pkt = Packet(src=(0, 0), dest=(0, 1), payload="x")
        assert mesh.inject((0, 0), pkt)
        mesh.step()
        out = mesh.take_delivered((0, 1))
        assert out == [pkt]
        assert pkt.delivered - pkt.injected == 1
        assert pkt.hops == 1
        assert pkt.queue_cycles == 0

    @pytest.mark.parametrize("dest,hops", [((0, 4), 4), ((4, 0), 4),
                                           ((4, 4), 8), ((2, 3), 5)])
    def test_uncontended_latency_equals_manhattan(self, dest, hops):
        mesh = WormholeMesh(5, 5)
        pkt = Packet(src=(0, 0), dest=dest)
        mesh.inject((0, 0), pkt)
        got = drain(mesh, [dest], hops + 2)
        assert got == [pkt]
        assert pkt.delivered - pkt.injected == hops
        assert pkt.queue_cycles == 0

    def test_row_first_routing(self):
        mesh = WormholeMesh(5, 5)
        # row-first means a (0,0)->(2,2) packet passes through (2,0) area;
        # verified indirectly: a packet from (0,0) to (2,2) and another from
        # (4,0) to (2,2) contend only on the final column links.
        a = Packet(src=(0, 0), dest=(2, 2))
        b = Packet(src=(0, 2), dest=(2, 2))
        mesh.inject((0, 0), a)
        mesh.inject((0, 2), b)
        got = drain(mesh, [(2, 2)], 8)
        assert {id(p) for p in got} == {id(a), id(b)}


class TestContention:
    def test_link_contention_serializes(self):
        mesh = WormholeMesh(5, 5)
        # two packets from the same node to the same neighbour: one link,
        # one operand per cycle -> second is delayed one cycle.
        a = Packet(src=(1, 1), dest=(1, 2))
        b = Packet(src=(1, 1), dest=(1, 2))
        mesh.inject((1, 1), a)
        mesh.inject((1, 1), b)
        got = drain(mesh, [(1, 2)], 4)
        assert len(got) == 2
        times = sorted(p.delivered for p in got)
        assert times[1] == times[0] + 1
        assert sum(p.queue_cycles for p in got) == 1

    def test_two_lanes_remove_contention(self):
        # a and b arrive at (1,1) from different ports and both want the
        # east link; with two lanes they cross it in the same cycle.
        def race(lanes):
            mesh = WormholeMesh(5, 5, lanes=lanes)
            a = Packet(src=(1, 0), dest=(1, 2))
            b = Packet(src=(0, 1), dest=(1, 2))
            mesh.inject((1, 0), a)
            mesh.inject((0, 1), b)
            got = drain(mesh, [(1, 2)], 8)
            assert len(got) == 2
            return sorted(p.delivered for p in got)

        single = race(lanes=1)
        double = race(lanes=2)
        assert single[1] == single[0] + 1
        assert double[1] == double[0]

    def test_multiflit_serialization(self):
        mesh = WormholeMesh(4, 10)
        a = Packet(src=(0, 0), dest=(0, 3), flits=5)
        b = Packet(src=(0, 0), dest=(0, 3), flits=5)
        mesh.inject((0, 0), a)
        mesh.inject((0, 0), b)
        got = drain(mesh, [(0, 3)], 30)
        assert len(got) == 2
        times = sorted(p.delivered for p in got)
        # the second head flit waits ~5 cycles at each shared link
        assert times[1] >= times[0] + 4

    def test_injection_backpressure(self):
        mesh = WormholeMesh(2, 2, queue_depth=1)
        assert mesh.inject((0, 0), Packet(src=(0, 0), dest=(1, 1)))
        assert not mesh.inject((0, 0), Packet(src=(0, 0), dest=(1, 1)))
        assert mesh.stats.inject_stalls == 1

    def test_round_robin_fairness(self):
        mesh = WormholeMesh(3, 3)
        # north and west neighbours both stream packets through (1,1) east
        pending = []
        for i in range(4):
            pending.append(((1, 0), Packet(src=(1, 0), dest=(1, 2))))
            pending.append(((0, 1), Packet(src=(0, 1), dest=(1, 2))))
        got = []
        for _ in range(40):
            pending = [(n, p) for n, p in pending if not mesh.inject(n, p)]
            mesh.step()
            got.extend(mesh.take_delivered((1, 2)))
        assert len(got) == 8
        by_src = {}
        for p in got:
            by_src.setdefault(p.src, []).append(p.delivered)
        # neither source is starved: deliveries interleave
        assert max(by_src[(1, 0)]) - min(by_src[(0, 1)]) < 12


class TestConservation:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4),
                  st.integers(0, 4), st.integers(0, 4)),
        min_size=1, max_size=30))
    def test_every_injected_packet_is_delivered_exactly_once(self, routes):
        mesh = WormholeMesh(5, 5, queue_depth=4)
        packets = []
        for sr, sc, dr, dc in routes:
            pkt = Packet(src=(sr, sc), dest=(dr, dc), payload=len(packets))
            if mesh.inject((sr, sc), pkt):
                packets.append(pkt)
        nodes = [(r, c) for r in range(5) for c in range(5)]
        got = drain(mesh, nodes, 200)
        assert sorted(p.payload for p in got) == sorted(
            p.payload for p in packets)
        for p in got:
            assert p.delivered - p.injected >= p.min_latency
            assert p.hops == p.min_latency  # dimension order: minimal route

    def test_stats_consistency(self):
        mesh = WormholeMesh(5, 5)
        sent = 0
        got = []
        for cycle in range(100):
            if sent < 10 and mesh.inject(
                    (0, 0), Packet(src=(0, 0), dest=(4, 4))):
                sent += 1
            mesh.step()
            got.extend(mesh.take_delivered((4, 4)))
        assert sent == 10 and len(got) == 10
        assert mesh.stats.delivered == mesh.stats.injected == 10
        assert mesh.stats.total_hops == 10 * 8


class TestRoutingTables:
    def test_one_shape_shares_its_tables(self):
        a, b = WormholeMesh(5, 5), WormholeMesh(5, 5, vcs=2, lanes=2)
        ocn = WormholeMesh(4, 10)
        assert a._route is b._route and a._hop is b._hop
        assert ocn._route is not a._route and ocn._hop is not a._hop
        # the per-instance state is not shared
        assert a.ports[(0, 0)] is not b.ports[(0, 0)]
        assert a._busy is not b._busy and a._rr is not b._rr
        assert a._occupancy is not b._occupancy
        a.inject((0, 0), Packet(src=(0, 0), dest=(4, 4)))
        assert b.is_idle() and not a.is_idle()
