"""Structure rules: radiality verdicts, sectioning-point derivation,
connectivity, feeders, fault footprints and switching sequences.

The radiality oracle is ground truth by construction: random trees are
radial by definition, a chord inside one feeder closes a galvanic ring, and
a chord between two feeders of the same busbar couples them. The verdicts
must match that knowledge without looking at the implementation. Energized
sets are cross-checked against a sparse connected-components solve, the
second-path checks against dropping every line in turn, the fault
footprints, which are searched from the lines a fault cuts, against
connected components of the whole grid before and after the trip, and the
resupply search, which grows its energized sets, against searching them
again from the sources for every candidate switch.
"""

import dataclasses
import random

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import gridforge.fixtures as fx
from gridforge import topology
from gridforge.fixtures import CABLE_150, GridBuilder
from gridforge.power_flow import contingency_cases
from gridforge.reliability import ReliabilityParams, outage_matrix
from gridforge.topology import (
    SwitchAction,
    SwitchingSequence,
    _closed_tie,
    _energized,
    _fault_closure,
    _non_remote_tie,
    _state_map,
    _trip,
    check_contingency_supply,
    check_radiality,
    check_supply,
    conducting_path,
    derive_radial_state,
    energized_buses,
    fault_analysis,
    feeder_bays,
    find_feeders,
    find_stubs,
    resupply_sequence,
)


def with_switch_state(grid, switch_state):
    """The grid with the switch positions of ``switch_state`` stored in it,
    for the functions that read only the grid's own switch states."""
    return grid.replace(switches=tuple(
        dataclasses.replace(s, closed=switch_state.get(s.id, s.closed))
        for s in grid.switches))


# --------------------------------------------------------------------------
# oracle: independent energized-set computation (sparse graph components)


def reachable_oracle(grid, state, exclude=frozenset()):
    """Buses galvanically tied to an external source, computed with scipy's
    connected components instead of any package traversal. Lines named in
    ``exclude`` do not conduct."""
    buses = sorted(b.id for b in grid.buses)
    index = {b: i for i, b in enumerate(buses)}
    rows, cols = [], []

    def join(a, b):
        rows.extend((index[a], index[b]))
        cols.extend((index[b], index[a]))

    for line in grid.lines:
        if not line.in_service or line.id in exclude:
            continue
        if all(state.get(s.id, s.closed)
               for s in grid.switches_by_line.get(line.id, ())):
            join(line.from_bus, line.to_bus)
    for t in grid.transformers:
        join(t.hv_bus, t.lv_bus)

    n = len(buses)
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    _, labels = connected_components(adj, directed=False)
    live = {labels[index[src.bus]] for src in grid.external_sources}
    return frozenset(b for b in buses if labels[index[b]] in live)


# --------------------------------------------------------------------------
# oracle: structured random grids with known verdicts


def random_tree(rng: random.Random, n: int) -> GridBuilder:
    b = GridBuilder(CABLE_150)
    b.infeed("hv", "mv", 0.0, 0.0)
    parents = ["mv"]
    for i in range(n):
        parent = rng.choice(parents)
        bus = f"s{i}"
        b.bus(bus, "secondary_substation", rng.uniform(0, 5000), rng.uniform(-3000, 3000))
        b.line(f"t{i}", parent, bus, round(rng.uniform(0.3, 1.4), 3), CABLE_150,
               breaker_at=("mv",) if parent == "mv" else ())
        b.load(bus, 0.2)
        parents.append(bus)
    return b


def feeders_of_tree(builder: GridBuilder):
    """Partition the stations of a built tree by the feeder they hang off."""
    grid = builder.build()
    groups = {}
    for feeder in find_feeders(grid):
        groups[feeder.head_line] = set(feeder.buses)
    return grid, list(groups.values())


@pytest.mark.parametrize("seed", range(12))
def test_random_trees_are_radial(seed):
    rng = random.Random(seed)
    grid = random_tree(rng, rng.randint(3, 18)).build()
    assert check_radiality(grid) == []
    assert check_supply(grid) == []


@pytest.mark.parametrize("seed", range(12))
def test_chord_inside_a_feeder_closes_a_ring(seed):
    rng = random.Random(100 + seed)
    builder = random_tree(rng, rng.randint(6, 18))
    grid, groups = feeders_of_tree(builder)
    group = max(groups, key=len)
    if len(group) < 3:
        pytest.skip("tree degenerated into tiny feeders")
    # chord between two stations of the same feeder that are not yet joined
    for a in sorted(group):
        partners = [b for b in sorted(group) if b != a and not any(
            {l.from_bus, l.to_bus} == {a, b} for l in grid.lines)]
        if partners:
            b_bus = partners[0]
            break
    else:
        pytest.skip("feeder is a clique (cannot happen on trees this size)")
    builder.line("chord", a, b_bus, 1.0, CABLE_150)
    verdict = check_radiality(builder.build())
    assert [v.kind for v in verdict] == ["closed_ring"]


@pytest.mark.parametrize("seed", range(12))
def test_chord_between_feeders_couples_them(seed):
    rng = random.Random(200 + seed)
    builder = random_tree(rng, rng.randint(6, 18))
    grid, groups = feeders_of_tree(builder)
    if len(groups) < 2:
        pytest.skip("single-feeder tree")
    a = sorted(groups[0])[0]
    b_bus = sorted(groups[1])[0]
    builder.line("chord", a, b_bus, 1.0, CABLE_150)
    verdict = check_radiality(builder.build())
    assert [v.kind for v in verdict] == ["feeder_coupling"]
    assert verdict[0].element == "mv"


def test_open_chord_is_legal():
    rng = random.Random(7)
    builder = random_tree(rng, 10)
    grid, groups = feeders_of_tree(builder)
    if len(groups) >= 2:
        a, b_bus = sorted(groups[0])[0], sorted(groups[1])[0]
    else:
        stations = sorted(groups[0])
        a, b_bus = stations[0], stations[-1]
    builder.line("chord", a, b_bus, 1.0, CABLE_150, open_at=a)
    assert check_radiality(builder.build()) == []


def test_exact_parallel_lines_count_as_one_edge():
    b = GridBuilder(CABLE_150)
    b.infeed("hv", "mv", 0, 0)
    b.bus("s1", "secondary_substation", 1000, 0)
    b.bus("s2", "secondary_substation", 2000, 0)
    b.line("l1", "mv", "s1", 1.0, CABLE_150, breaker_at=("mv",))
    b.line("p1", "s1", "s2", 1.0, CABLE_150)
    b.line("p2", "s1", "s2", 1.0, CABLE_150)
    b.load("s1", 0.3)
    b.load("s2", 0.3)
    grid = b.build()
    assert check_radiality(grid) == []
    derived = derive_radial_state(grid, {s.id: True for s in grid.switches})
    assert all(derived.values()), "parallel twins must both stay closed"


# --------------------------------------------------------------------------
# the three canonical structure verdicts


def test_open_ring_is_radial():
    assert check_radiality(fx.open_ring_demo()) == []


def test_closed_tie_between_feeders_is_flagged():
    verdict = check_radiality(fx.coupled_ring_demo())
    assert [v.kind for v in verdict] == ["feeder_coupling"]
    assert verdict[0].element == "mv"


def test_double_supply_through_switching_station_is_legal():
    grid = fx.station_ring_demo()
    assert check_radiality(grid) == []
    assert check_supply(grid) == []


# --------------------------------------------------------------------------
# energized set and supply check


@pytest.mark.parametrize("build", [
    fx.open_ring_demo, fx.coupled_ring_demo, fx.station_ring_demo,
    fx.resupply_demo, fx.double_feeder_grid, fx.example_area,
], ids=lambda f: f.__name__)
def test_energized_matches_component_oracle(build):
    grid = build()
    rng = random.Random(build.__name__)
    states = [{s.id: s.closed for s in grid.switches},
              {s.id: True for s in grid.switches}]
    for _ in range(6):
        state = {s.id: rng.random() < 0.8 for s in grid.switches}
        states.append(state)
    for state in states:
        assert energized_buses(grid, state) == reachable_oracle(grid, state)

    line_ids = [l.id for l in grid.lines]
    for _ in range(8):
        out_of_service = {lid for lid in line_ids if rng.random() < 0.15}
        damaged = grid.replace(lines=tuple(
            dataclasses.replace(l, in_service=l.id not in out_of_service)
            for l in grid.lines))
        exclude = frozenset(rng.sample(line_ids, rng.randint(0, min(3, len(line_ids)))))
        for state in rng.sample(states, 3):
            assert (energized_buses(damaged, state, exclude)
                    == reachable_oracle(damaged, state, exclude))


def test_check_supply_names_dark_stations():
    grid = fx.open_ring_demo()
    state = {s.id: s.closed for s in grid.switches}
    state["f1@mv"] = False
    violations = check_supply(grid, state)
    assert [(v.kind, v.element) for v in violations] == [
        ("unsupplied", "s1"), ("unsupplied", "s2"), ("unsupplied", "s3")]
    assert check_supply(grid) == []


# --------------------------------------------------------------------------
# sectioning-point derivation


def test_derivation_opens_ring_pair_at_the_tie():
    grid = fx.ring_pair_grid(1.6)
    derived = derive_radial_state(grid, {s.id: True for s in grid.switches})
    assert sorted(k for k, v in derived.items() if not v) == ["tie@r4"]


@pytest.mark.parametrize("n_stations", range(3, 10))
def test_derivation_balances_single_ring(n_stations):
    b = GridBuilder(CABLE_150)
    b.infeed("hv", "mv", 0.0, 0.0)
    prev = "mv"
    for i in range(1, n_stations + 1):
        b.bus(f"r{i}", "secondary_substation", 1000.0 * i, 500.0)
        b.line(f"g{i}", prev, f"r{i}", 1.0, CABLE_150,
               breaker_at=("mv",) if prev == "mv" else ())
        b.load(f"r{i}", 0.3)
        prev = f"r{i}"
    b.line(f"g{n_stations + 1}", prev, "mv", 1.0, CABLE_150, breaker_at=("mv",))
    grid = b.build()
    derived = derive_radial_state(grid, {s.id: True for s in grid.switches})
    assert check_radiality(grid, derived) == []
    sizes = sorted(len(f.buses) for f in find_feeders(grid, derived))
    assert sizes == sorted((n_stations // 2, n_stations - n_stations // 2))


def test_derivation_keeps_every_station_energized():
    for build in (fx.example_area, fx.station_tradeoff_area, fx.mesh_tradeoff_area):
        grid = build()
        all_closed = {s.id: True for s in grid.switches}
        derived = derive_radial_state(grid, all_closed)
        assert check_radiality(grid, derived) == []
        assert energized_buses(grid, derived) == energized_buses(grid, all_closed)


def test_derivation_only_opens_switches():
    grid = fx.example_area()
    start = {s.id: s.closed for s in grid.switches}
    derived = derive_radial_state(grid)
    for sid, closed in derived.items():
        if not start[sid]:
            assert not closed, f"{sid} was opened before and must stay open"


def test_derivation_is_idempotent():
    grid = fx.example_area()
    derived = derive_radial_state(grid, {s.id: True for s in grid.switches})
    assert derive_radial_state(grid, derived) == derived


def infeed_chain(n_a: int, n_b: int, *, ring: bool) -> GridBuilder:
    """Two infeeds joined by one closed chain: n_a stations a0.. leave
    busbar ma, n_b stations b.. reach busbar mb; lines l00.. run from ma.
    With ``ring``, a closed four-line ring q1-q4 also hangs off ma."""
    b = GridBuilder(CABLE_150)
    b.infeed("ha", "ma", 0.0, 0.0)
    b.infeed("hb", "mb", 1000.0 * (n_a + n_b + 1), 0.0)
    chain = ["ma", *(f"a{i}" for i in range(n_a)),
             *(f"b{i}" for i in reversed(range(n_b))), "mb"]
    for i, bus in enumerate(chain[1:-1], 1):
        b.bus(bus, "secondary_substation", 1000.0 * i, 0.0)
        b.load(bus, 0.3)
    for i, (u, v) in enumerate(zip(chain, chain[1:])):
        b.line(f"l{i:02d}", u, v, 1.0, CABLE_150, breaker_at=("ma", "mb"))
    if ring:
        loop = ["ma", "r1", "r2", "r3", "ma"]
        for i, bus in enumerate(loop[1:-1], 1):
            b.bus(bus, "secondary_substation", -1000.0 * i, 500.0)
            b.load(bus, 0.3)
        for i, (u, v) in enumerate(zip(loop, loop[1:]), 1):
            b.line(f"q{i}", u, v, 1.0, CABLE_150, breaker_at=("ma",))
    return b


@pytest.mark.parametrize("ring", [False, True], ids=["chain", "chain+ring"])
@pytest.mark.parametrize("n_a,n_b,cut", [
    (3, 3, "l03@a2"), (3, 2, "l02@a1"), (2, 2, "l02@a1"), (1, 4, "l02@b2"),
])
def test_derivation_cuts_a_path_between_two_infeeds_near_its_middle(n_a, n_b, cut, ring):
    grid = infeed_chain(n_a, n_b, ring=ring).build()
    all_closed = {s.id: True for s in grid.switches}
    assert {v.kind for v in check_radiality(grid, all_closed)} == {"feeder_coupling"}
    derived = derive_radial_state(grid, all_closed)
    opened = sorted(sid for sid, closed in derived.items() if not closed)
    assert opened == ([cut, "q2@r1"] if ring else [cut])
    assert check_radiality(grid, derived) == []
    assert energized_buses(grid, derived) == energized_buses(grid, all_closed)


def test_derived_cuts_on_the_planning_area():
    grid = fx.example_area()
    derived = derive_radial_state(grid, {s.id: True for s in grid.switches})
    opened = sorted(sid for sid, closed in derived.items() if not closed)
    # hop-balanced midpoints of the five conducting loops, standby route last
    assert opened == ["a_tie@a3", "b_tie@b3", "c_3@c2", "c_8@c6", "sup1b@m1"]


# --------------------------------------------------------------------------
# alternate-path search


def test_conducting_path_walks_the_ring():
    grid = fx.open_ring_demo()
    closed = {s.id: True for s in grid.switches}
    path = conducting_path(grid, closed, "f2", "s1", "s2")
    assert path == ["f1", "f6", "f5", "f4", "tie", "f3"]
    assert conducting_path(grid, {s.id: s.closed for s in grid.switches},
                           "f2", "s1", "s2") is None


def test_conducting_path_trivial_goal():
    grid = fx.open_ring_demo()
    closed = {s.id: True for s in grid.switches}
    assert conducting_path(grid, closed, "f2", "s1", "s1") == []


# --------------------------------------------------------------------------
# stubs, feeders, contingency supply


def test_find_stubs_on_the_planning_area():
    assert sorted(find_stubs(fx.example_area())) == ["d25", "s23", "z24"]


def test_feeders_of_the_open_ring():
    grid = fx.open_ring_demo()
    feeders = {f.head_line: f for f in find_feeders(grid)}
    assert set(feeders) == {"f1", "f6"}
    assert feeders["f1"].root == "mv"
    assert feeders["f1"].breaker == "f1@mv"
    assert feeders["f1"].buses == ("s1", "s2", "s3")
    assert feeders["f6"].buses == ("s4", "s5", "s6")
    assert feeders["f6"].lines == ("f4", "f5", "f6")


def feeder_claims_oracle(grid):
    """(root, head line, lines) per feeder of the stored switch state,
    without the package's searches. The busbars are ordered by hops from
    the sources (a BFS over an adjacency dict of its own), ties by id. A
    feeder is a block of conducting lines joined through buses that are no
    busbar; the first busbar in that order that the block touches claims
    it, from its lowest line id there."""
    busbar_kinds = ("primary_substation", "switching_station")
    closed = {s.id: s.closed for s in grid.switches}
    conducting = [l for l in grid.lines if l.in_service and all(
        closed[s.id] for s in grid.switches if s.line == l.id)]
    adj = {}
    for u, v in [(l.from_bus, l.to_bus) for l in conducting] + [
            (t.hv_bus, t.lv_bus) for t in grid.transformers]:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    hops = {b: 0 for b in grid.source_buses}
    queue = sorted(hops)
    for bus in queue:  # grows while it is read: a FIFO queue
        for other in adj.get(bus, ()):
            if other not in hops:
                hops[other] = hops[bus] + 1
                queue.append(other)
    busbars = sorted((b.id for b in grid.buses if b.kind in busbar_kinds and b.id in hops),
                     key=lambda bus: (hops[bus], bus))
    rank = {bus: i for i, bus in enumerate(busbars)}

    lines = [l for l in conducting if l.from_bus in hops]
    block = list(range(len(lines)))

    def find(i):
        while block[i] != i:
            i = block[i]
        return i

    first_at = {}
    for i, line in enumerate(lines):
        for end in (line.from_bus, line.to_bus):
            if end not in rank:
                block[find(i)] = find(first_at.setdefault(end, i))
    members = {}
    for i, line in enumerate(lines):
        members.setdefault(find(i), []).append(line)
    claims = []
    for part in members.values():
        at, head = min((rank[end], l.id) for l in part
                       for end in (l.from_bus, l.to_bus) if end in rank)
        claims.append((at, head, tuple(sorted(l.id for l in part))))
    return [(busbars[at], head, lines) for at, head, lines in sorted(claims)]


def test_feeders_are_claimed_in_hop_order_then_by_id():
    # m2 and m1 are both one hop from a source, and the closed run between
    # them goes to m1 on its id although m2 comes first in the grid; the
    # switching station k1, three hops out, sorts before both by id, but
    # the run from m1 that ends at it belongs to m1's feeder
    b = GridBuilder(CABLE_150)
    b.infeed("h2", "m2", 4000.0, 0.0)
    b.infeed("h1", "m1", 0.0, 0.0)
    b.bus("k1", "switching_station", 0.0, 3000.0)
    for bus, x, y in (("a1", 2000.0, 0.0), ("b1", 0.0, 1500.0), ("c1", 0.0, 4500.0)):
        b.bus(bus, "secondary_substation", x, y)
        b.load(bus, 0.3)
    b.line("l2", "a1", "m2", 2.0, CABLE_150)
    b.line("l1", "m1", "a1", 2.0, CABLE_150)
    b.line("l4", "b1", "k1", 1.5, CABLE_150)
    b.line("l3", "m1", "b1", 1.5, CABLE_150)
    b.line("l5", "k1", "c1", 1.5, CABLE_150)
    grid = b.build()
    feeders = find_feeders(grid)
    assert [(f.root, f.head_line, f.buses, f.lines) for f in feeders] == [
        ("m1", "l1", ("a1",), ("l1", "l2")),
        ("m1", "l3", ("b1",), ("l3", "l4")),
        ("k1", "l5", ("c1",), ("l5",)),
    ]
    assert [(f.root, f.head_line, f.lines) for f in feeders] == feeder_claims_oracle(grid)


@pytest.mark.parametrize("build", [
    fx.example_area, fx.station_ring_demo, fx.station_tradeoff_area, fx.double_feeder_grid,
], ids=lambda build: build.__name__)
def test_feeders_match_the_hop_order_oracle(build):
    grid = build()
    feeders = find_feeders(grid)
    assert len(feeders) > 1
    assert [(f.root, f.head_line, f.lines) for f in feeders] == feeder_claims_oracle(grid)


def test_feeder_bays_counts_primary_bays_only():
    assert feeder_bays(fx.example_area()) == 7
    assert feeder_bays(fx.open_ring_demo()) == 2


def test_contingency_supply_flags_single_path_stations():
    grid = fx.open_ring_demo()
    assert check_contingency_supply(grid) == []

    two = fx.two_bus_grid()
    assert check_contingency_supply(two) == []  # nothing demands a second path
    flagged = two.replace(buses=tuple(
        dataclasses.replace(b, requires_contingency_supply=(b.id == "s1"))
        for b in two.buses))
    violations = check_contingency_supply(flagged)
    assert [(v.kind, v.element) for v in violations] == [("no_second_path", "s1")]


def random_infeeds(rng: random.Random) -> GridBuilder:
    """1-3 separate infeeds, a random station tree on each, and a few open
    chords between any two buses of the trees (possibly of two infeeds)."""
    b = GridBuilder(CABLE_150)
    ends = []
    for k in range(rng.randint(1, 3)):
        busbar = f"m{k}"
        b.infeed(f"h{k}", busbar, 8000.0 * k, 0.0)
        parents = [busbar]
        for i in range(rng.randint(1, 9)):
            bus = f"s{k}_{i}"
            parent = rng.choice(parents)
            b.bus(bus, "secondary_substation",
                  8000.0 * k + rng.uniform(0, 5000), rng.uniform(-3000, 3000))
            b.line(f"t{k}_{i}", parent, bus, 1.0, CABLE_150,
                   breaker_at=(busbar,) if parent == busbar else ())
            b.load(bus, 0.2)
            parents.append(bus)
        ends += parents
    for c in range(rng.randint(0, 4)):
        u, v = rng.sample(ends, 2)
        b.line(f"c{c}", u, v, 1.0, CABLE_150, open_at=u)
    return b


def weak_oracle(grid):
    """Stations that some single in-service line failure cuts off from every
    source, with every switch closable: drop each line in turn and search."""
    def reach(dropped):
        adj = {}
        for line in grid.lines:
            if line.in_service and line.id != dropped:
                adj.setdefault(line.from_bus, []).append(line.to_bus)
                adj.setdefault(line.to_bus, []).append(line.from_bus)
        for t in grid.transformers:
            adj.setdefault(t.hv_bus, []).append(t.lv_bus)
            adj.setdefault(t.lv_bus, []).append(t.hv_bus)
        seen = set(grid.source_buses)
        stack = list(seen)
        while stack:
            for other in adj.get(stack.pop(), ()):
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return seen

    stations = {b.id for b in grid.stations()}
    weak = stations - reach(None)
    for line in grid.lines:
        if line.in_service:
            weak |= stations - reach(line.id)
    return weak


@pytest.mark.parametrize("chunk", range(10))
def test_second_path_checks_match_dropping_each_line(chunk):
    for seed in range(30 * chunk, 30 * chunk + 30):
        grid = random_infeeds(random.Random(seed)).build()
        weak = weak_oracle(grid)
        assert find_stubs(grid) == weak, seed
        flagged = grid.replace(buses=tuple(
            dataclasses.replace(b, requires_contingency_supply=True)
            for b in grid.buses))
        violations = check_contingency_supply(flagged)
        assert [v.element for v in violations] == sorted(weak), seed


# --------------------------------------------------------------------------
# fault footprints


def test_fault_footprints_on_the_double_feeder():
    grid = fx.double_feeder_grid()
    expect = {
        # cable feeder with mid-line remote switches
        "d1": (("d1@mv",), {"s1", "s2", "s3"}, {"s2", "s3"}),
        "d2": (("d1@mv",), {"s1", "s2", "s3"}, {"s1", "s2", "s3"}),
        "d3": (("d1@mv",), {"s1", "s2", "s3"}, {"s1", "s2"}),
        # overhead feeder with manual switches only
        "d4": (("d4@mv",), {"s4", "s5"}, set()),
        "d5": (("d4@mv",), {"s4", "s5"}, set()),
        "tie": (("d4@mv",), {"s4", "s5"}, set()),
    }
    for line_id, (tripped, affected, remote) in expect.items():
        fa = fault_analysis(grid, line_id)
        assert fa.tripped_breakers == tripped, line_id
        assert fa.affected_stations == frozenset(affected), line_id
        assert fa.remote_resuppliable == frozenset(remote), line_id


def test_fault_on_dark_line_has_no_footprint():
    grid = fx.double_feeder_grid()
    state = {s.id: s.closed for s in grid.switches}
    state["tie@s5"] = False  # now both tie ends are open
    fa = fault_analysis(grid, "tie", state)
    assert fa.tripped_breakers == ()
    assert fa.affected_stations == frozenset()
    assert fa.remote_resuppliable == frozenset()


def test_fault_analysis_unknown_line():
    with pytest.raises(KeyError):
        fault_analysis(fx.two_bus_grid(), "ghost")


# --------------------------------------------------------------------------
# switching sequences


def test_resupply_restores_all_stations():
    grid = fx.resupply_demo()
    seq = resupply_sequence(grid, "l2")
    assert [(a.switch, a.action, a.stage, a.actuation) for a in seq.actions] == [
        ("l1@mv", "open", "trip", "protection_trip"),
        ("l2@s1", "open", "isolate", "manual"),
        ("l2@s2", "open", "isolate", "manual"),
        ("l1@mv", "close", "resupply", "remote"),
        ("tie@s2", "close", "resupply", "manual"),
    ]
    assert seq.unsupplied == ()
    # the faulted line ends up isolated on both sides
    assert seq.resulting_state["l2@s1"] is False
    assert seq.resulting_state["l2@s2"] is False
    live = energized_buses(grid, seq.resulting_state, frozenset(("l2",)))
    assert {b.id for b in grid.stations()} <= live


def test_resupply_stage_order():
    seq = resupply_sequence(fx.resupply_demo(), "l2")
    order = {"trip": 0, "isolate": 1, "resupply": 2}
    stages = [order[a.stage] for a in seq.actions]
    assert stages == sorted(stages)


def test_resupply_with_no_alternative_leaves_station_dark():
    seq = resupply_sequence(fx.two_bus_grid(), "l1")
    assert [(a.switch, a.action) for a in seq.actions] == [
        ("l1@mv", "open"), ("l1@s1", "open")]
    assert seq.unsupplied == ("s1",)


def test_resupply_rejects_dark_line():
    grid = fx.double_feeder_grid()
    state = {s.id: s.closed for s in grid.switches}
    state["tie@s5"] = False
    with pytest.raises(ValueError, match="not energized"):
        resupply_sequence(grid, "tie", state)


def test_switch_actions_are_frozen_records():
    action = SwitchAction("x@y", "open", "trip", "protection_trip")
    with pytest.raises(dataclasses.FrozenInstanceError):
        action.action = "close"


def resupply_oracle(grid, failed_line, switch_state):
    """The switching sequence with every candidate's energized set searched
    again from the sources and its fault zone always traced."""
    state = _state_map(grid, switch_state)
    failed = grid.lines_by_id[failed_line]
    pre = _energized(grid, state)
    actions = []
    tripped, state = _trip(grid, failed, state)
    for sid in tripped:
        actions.append(SwitchAction(sid, "open", "trip", "protection_trip"))
    excluded = frozenset((failed_line,))
    for end in sorted((failed.from_bus, failed.to_bus)):
        sw = grid.switch_at.get((end, failed_line))
        if sw is not None and state[sw.id]:
            state[sw.id] = False
            actions.append(SwitchAction(
                sw.id, "open", "isolate", "remote" if sw.remote_controlled else "manual"))

    def safe_to_close(sid, current):
        trial = dict(current)
        trial[sid] = True
        energized = _energized(grid, trial, excluded)
        zone, _, _ = _fault_closure(grid, failed, trial, _closed_tie(trial))
        return None if energized & zone else energized

    def close(sid):
        sw = grid.switches_by_id[sid]
        state[sid] = True
        actions.append(SwitchAction(
            sid, "close", "resupply", "remote" if sw.remote_controlled else "manual"))

    for sid in tripped:
        if safe_to_close(sid, state) is not None:
            close(sid)
    stations = {b.id for b in grid.stations()}
    isolated = {a.switch for a in actions if a.stage == "isolate"}
    while True:
        dark = (pre & stations) - _energized(grid, state, excluded)
        if not dark:
            break
        best = None
        for sw in grid.switches:
            if state[sw.id] or sw.id in isolated:
                continue
            line = grid.lines_by_id.get(sw.line)
            if line is None or not line.in_service or line.id == failed_line:
                continue
            new_energized = safe_to_close(sw.id, state)
            if new_energized is None:
                continue
            gain = len(dark & new_energized)
            if gain > 0 and (best is None or gain > best[0] or
                             (gain == best[0] and sw.id < best[1])):
                best = (gain, sw.id)
        if best is None:
            break
        close(best[1])
    unsupplied = tuple(sorted((pre & stations) - _energized(grid, state, excluded)))
    return SwitchingSequence(failed_line, tuple(actions), state, unsupplied)


def damaged_infeeds(rng: random.Random):
    """A :func:`random_infeeds` grid with lines out of service, hard-wired
    line ends (so fault zones spread past the faulted line), remote-controlled
    switches, and a switch state with some open chords closed, so that one
    fault can trip several breakers."""
    grid = random_infeeds(rng).build()
    out_of_service = {l.id for l in grid.lines if rng.random() < 0.15}
    hard_wired = {s.id for s in grid.switches
                  if s.closed and s.kind != "circuit_breaker" and rng.random() < 0.1}
    grid = grid.replace(
        lines=tuple(dataclasses.replace(l, in_service=l.id not in out_of_service)
                    for l in grid.lines),
        switches=tuple(dataclasses.replace(s, remote_controlled=rng.random() < 0.3)
                       for s in grid.switches if s.id not in hard_wired))
    state = {s.id: s.closed or rng.random() < 0.25 for s in grid.switches}
    return grid, state


@pytest.mark.parametrize("chunk", range(10))
def test_resupply_matches_the_full_recompute_oracle(chunk):
    faults = 0
    for seed in range(40 * chunk, 40 * chunk + 40):
        grid, state = damaged_infeeds(random.Random(seed))
        for feeder in find_feeders(grid, state):
            seq = resupply_sequence(grid, feeder.head_line, state)
            expect = resupply_oracle(grid, feeder.head_line, state)
            assert seq.actions == expect.actions, (seed, feeder.head_line)
            assert seq.resulting_state == expect.resulting_state, (seed, feeder.head_line)
            assert seq.unsupplied == expect.unsupplied, (seed, feeder.head_line)
            faults += 1
    assert faults > 40


@pytest.mark.parametrize("failed_line, recloses", [
    ("l1", False), ("l2", True), ("l3", True), ("l4", False)])
def test_resupply_demo_matches_the_oracle_at_both_early_stops(failed_line, recloses,
                                                               monkeypatch):
    # a fault on a head line trips the breaker on that very line: the trace
    # for its re-close stops at the busbar, the first lit bus, and the
    # breaker stays open; after a mid-feeder fault the trace meets no lit
    # bus and the breaker is re-closed
    grid = fx.resupply_demo()
    closure = topology._fault_closure
    traces = []

    def traced(*args, **kwargs):
        zone = closure(*args, **kwargs)
        if kwargs.get("lit") is not None:
            traces.append(zone[0])
        return zone

    monkeypatch.setattr(topology, "_fault_closure", traced)
    seq = resupply_sequence(grid, failed_line)
    expect = resupply_oracle(grid, failed_line, None)
    assert (seq.actions, seq.resulting_state, seq.unsupplied) == \
        (expect.actions, expect.resulting_state, expect.unsupplied)
    (breaker,) = [a.switch for a in seq.actions if a.stage == "trip"]
    assert ((breaker, "close") in {(a.switch, a.action) for a in seq.actions}) == recloses
    assert (traces[0] is None) != recloses


def remote_reach_oracle(grid, state, failed_line, avoid_buses, avoid_bodies):
    """Buses tied to a source outside the fault closure when every
    remote-controlled open switch may be closed, from connected components
    of the whole grid without the closure's buses and lines."""
    buses = sorted(b.id for b in grid.buses if b.id not in avoid_buses)
    index = {b: i for i, b in enumerate(buses)}
    rows, cols = [], []

    def passable(bus, line):
        sw = grid.switch_at.get((bus, line.id))
        return sw is None or state[sw.id] or sw.remote_controlled

    for line in grid.lines:
        if (line.in_service and line.id != failed_line and line.id not in avoid_bodies
                and line.from_bus in index and line.to_bus in index
                and passable(line.from_bus, line) and passable(line.to_bus, line)):
            rows.extend((index[line.from_bus], index[line.to_bus]))
            cols.extend((index[line.to_bus], index[line.from_bus]))
    for t in grid.transformers:
        if t.hv_bus in index and t.lv_bus in index:
            rows.extend((index[t.hv_bus], index[t.lv_bus]))
            cols.extend((index[t.lv_bus], index[t.hv_bus]))
    n = len(buses)
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    _, labels = connected_components(adj, directed=False)
    live = {labels[index[b]] for b in grid.source_buses if b in index}
    return frozenset(b for b in buses if labels[index[b]] in live)


def footprint_oracle(grid, failed_line, switch_state):
    """Affected and remote-resuppliable stations of a fault, each searched
    over the whole grid: the buses energized before the fault minus those
    energized after the trip, and the remote reach around the closure."""
    state = _state_map(grid, switch_state)
    failed = grid.lines_by_id[failed_line]
    pre = reachable_oracle(grid, state)
    if failed.from_bus not in pre and failed.to_bus not in pre:
        return frozenset(), frozenset()
    _, post = _trip(grid, failed, state)
    after = reachable_oracle(grid, post, frozenset((failed_line,)))
    affected = (pre - after) & {b.id for b in grid.stations()}
    f_buses, f_bodies, _ = _fault_closure(grid, failed, post, _non_remote_tie(post))
    reach = remote_reach_oracle(grid, post, failed_line, f_buses, f_bodies)
    return affected, affected & reach


@pytest.mark.parametrize("chunk", range(10))
def test_fault_footprints_match_the_whole_grid_oracle(chunk):
    for seed in range(40 * chunk, 40 * chunk + 40):
        grid, state = damaged_infeeds(random.Random(seed))
        for line in grid.lines:
            if line.in_service:
                fa = fault_analysis(grid, line.id, state)
                assert (fa.affected_stations, fa.remote_resuppliable) == \
                    footprint_oracle(grid, line.id, state), (seed, line.id)


def test_the_footprint_oracle_inputs_hold_the_rare_faults():
    """Seeds 0-399 hold faults that trip no breaker yet darken stations
    (the failed line alone cuts them off) and faults whose stations are
    only partly resuppliable by remote switching."""
    untripped = partial = 0
    for seed in range(400):
        grid, state = damaged_infeeds(random.Random(seed))
        for line in grid.lines:
            if line.in_service:
                fa = fault_analysis(grid, line.id, state)
                untripped += not fa.tripped_breakers and bool(fa.affected_stations)
                partial += frozenset() < fa.remote_resuppliable < fa.affected_stations
    assert untripped > 0
    assert partial > 0


def test_contingency_cases_are_the_resupply_sequences_of_the_feeder_heads():
    for seed in range(100):
        grid, state = damaged_infeeds(random.Random(seed))
        assert contingency_cases(with_switch_state(grid, state)) == tuple(
            resupply_sequence(grid, f.head_line, state)
            for f in find_feeders(grid, state)), seed


def test_outage_matrix_matches_fault_analysis_row_by_row():
    params = ReliabilityParams()
    t_fast = params.t_locate + params.t_remote
    t_slow = params.t_locate + params.t_onsite
    remote_rows = 0
    for seed in range(150):
        grid, state = damaged_infeeds(random.Random(seed))
        expect = {}
        for line in grid.lines:
            if line.in_service:
                fa = fault_analysis(grid, line.id, state)
                expect[line.id] = {s: t_fast if s in fa.remote_resuppliable else t_slow
                                   for s in fa.affected_stations}
                remote_rows += bool(fa.remote_resuppliable)
        assert outage_matrix(with_switch_state(grid, state), params) == expect, seed
    assert remote_rows > 0


# --------------------------------------------------------------------------
# alternate paths against a search over a prebuilt adjacency


def path_oracle(grid, state, exclude_line, start, goal):
    """Breadth-first search over an adjacency of every conducting line but
    ``exclude_line`` (grid order) followed by every transformer."""
    adj = {}
    for line in grid.lines:
        if line.id == exclude_line or not line.in_service:
            continue
        if all(state[s.id] for s in grid.switches_by_line.get(line.id, ())):
            adj.setdefault(line.from_bus, []).append((line.to_bus, line.id))
            adj.setdefault(line.to_bus, []).append((line.from_bus, line.id))
    for t in grid.transformers:
        adj.setdefault(t.hv_bus, []).append((t.lv_bus, None))
        adj.setdefault(t.lv_bus, []).append((t.hv_bus, None))
    prev = {start: None}
    queue = [start]
    for bus in queue:
        if bus == goal:
            path = []
            while prev[bus] is not None:
                bus, line_id = prev[bus]
                if line_id is not None:
                    path.append(line_id)
            return path[::-1]
        for other, line_id in adj.get(bus, ()):
            if other not in prev:
                prev[other] = (bus, line_id)
                queue.append(other)
    return None


def shared_hv_infeeds(rng: random.Random):
    """A :func:`damaged_infeeds` grid whose second busbar, if any, also
    hangs off the first infeed's HV bus, so two busbars are as near each
    other over a transformer as over some lines."""
    grid, state = damaged_infeeds(rng)
    if "m1" in grid.buses_by_id:
        grid = grid.replace(transformers=grid.transformers + (dataclasses.replace(
            grid.transformers[0], id="h0_m1", lv_bus="m1"),))
    return grid, state


@pytest.mark.parametrize("chunk", range(4))
def test_conducting_path_matches_the_adjacency_oracle(chunk):
    found = 0
    for seed in range(50 * chunk, 50 * chunk + 50):
        rng = random.Random(seed)
        grid, state = shared_hv_infeeds(rng)
        buses = [b.id for b in grid.buses]
        for line in grid.lines:
            pairs = [(line.from_bus, line.to_bus), tuple(rng.sample(buses, 2))]
            for start, goal in pairs:
                path = conducting_path(grid, state, line.id, start, goal)
                assert path == path_oracle(grid, state, line.id, start, goal), (seed, line.id)
                found += path is not None
    assert found > 100


def test_conducting_path_prefers_lines_to_an_equally_near_transformer():
    b = GridBuilder(CABLE_150)
    b.infeed("hv", "m0", 0.0, 0.0)
    b.bus("m1", "primary_substation", 0.0, 2000.0)
    b.bus("s1", "secondary_substation", 1000.0, 1000.0)
    b.line("a", "m0", "s1", 1.0, CABLE_150)
    b.line("b", "s1", "m1", 1.0, CABLE_150)
    grid = b.build()
    grid = grid.replace(transformers=grid.transformers + (dataclasses.replace(
        grid.transformers[0], id="hv_m1", lv_bus="m1"),))
    closed = {s.id: True for s in grid.switches}
    assert conducting_path(grid, closed, "none", "m0", "m1") == ["a", "b"]
    assert conducting_path(grid, closed, "b", "m0", "m1") == []
