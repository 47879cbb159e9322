"""Topological analysis of MV grids: energization, radiality, resupply.

Switch semantics: a line conducts iff it is in service and every switch
attached to it is closed; a bus-line connection without a switch is hard
wired. Transformers always conduct. The checks, the feeder search, the
radialization and the fault simulation accept an optional ``switch_state``
mapping (switch id -> closed) overriding the stored states, so planning code
can explore switching configurations without copying grids.

The restoration model mirrors MV practice: a line fault trips the closed
circuit breakers bounding the galvanically affected region, the two switches
adjacent to the faulted line are opened to isolate it, the tripped breakers
are re-closed where that does not re-energize the fault, and normally-open
sectioning points are closed until no further station can be resupplied.
That greedy search keeps one energized set and grows it: closing a switch
can only add the dark region behind its line, so no candidate switch needs
a search from the sources.

A fault's footprint is searched from the lines it cuts, never by flooding
the grid again. The post-trip state only opens switches, so a bus that
loses supply shares its post-trip component with an end of the failed line
or of a tripped breaker's line. One search from each such end stops at the
first source or lit bus; one that finds neither has found a dark component.
The same search from the affected stations, over the switches a remote
command may close, decides which of them remote switching restores.

All infeeds hang off one virtual root, joined to every source bus by an edge
that is no line and can never be cut or opened. The second-path check and
the sectioning-point search both start at that root, so several infeeds need
no special case: a path between two infeeds is one more cycle through the
root and is cut like a ring.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from gridforge.grid_model import Grid, Line, Switch

__all__ = [
    "Feeder",
    "FaultAnalysis",
    "SwitchAction",
    "SwitchingSequence",
    "TopologyViolation",
    "check_contingency_supply",
    "check_radiality",
    "check_supply",
    "derive_radial_state",
    "energized_buses",
    "fault_analysis",
    "feeder_bays",
    "find_feeders",
    "find_stubs",
    "resupply_sequence",
]

SPLITTING_KINDS = ("primary_substation", "switching_station")


@dataclass(frozen=True)
class TopologyViolation:
    kind: str  # unsupplied | closed_ring | feeder_coupling | no_second_path
    element: str  # offending bus or line id
    message: str

    def __str__(self) -> str:
        return f"{self.kind}({self.element}): {self.message}"


def _state_map(grid: Grid, switch_state: dict[str, bool] | None) -> dict[str, bool]:
    state = {s.id: s.closed for s in grid.switches}
    if switch_state:
        for sid, closed in switch_state.items():
            if sid in state:
                state[sid] = closed
    return state


def _conducts(grid: Grid, state: dict[str, bool],
              exclude: frozenset[str] = frozenset()) -> Callable[[Line], bool]:
    """The rule for when a line conducts: it is in service, not in
    ``exclude``, and every switch on it is closed in ``state``."""
    switch_ids = grid.switch_ids_by_line
    closed = state.__getitem__
    return lambda line: (line.in_service and line.id not in exclude
                         and all(map(closed, switch_ids.get(line.id, ()))))


def _conducting_lines(grid: Grid, state: dict[str, bool],
                      exclude: frozenset[str] = frozenset()) -> list[Line]:
    return list(filter(_conducts(grid, state, exclude), grid.lines))


def energized_buses(grid: Grid, switch_state: dict[str, bool] | None = None,
                    exclude_lines: frozenset[str] = frozenset()) -> frozenset[str]:
    """Buses reachable from any external source over the conducting grid."""
    state = _state_map(grid, switch_state)
    return _energized(grid, state, exclude_lines)


def _sources(grid: Grid) -> list[str]:
    """The buses of the grid that hold an external source."""
    return [b for b in grid.source_buses if b in grid.buses_by_id]


def _energized(grid: Grid, state: dict[str, bool],
               exclude_lines: frozenset[str] = frozenset()) -> frozenset[str]:
    """Buses reachable from the sources."""
    return frozenset(_flood(grid, state, _sources(grid), exclude_lines))


def _flood(grid: Grid, state: dict[str, bool], seeds: Iterable[str],
           exclude_lines: frozenset[str],
           barrier: frozenset[str] | set[str] = frozenset()) -> dict[str, int]:
    """BFS from ``seeds`` over conducting lines and transformers that never
    enters ``barrier``: each bus reached, with its distance in hops from the
    nearest seed. A line's switches are read only when it is reached.

    The loop walks the lines itself instead of calling the
    :func:`_conducting_neighbours` generator, which walks the same graph:
    from the sources of the four ``large_checks`` areas of perfbench (seed
    7) on a 2-vCPU host, a flood over the generator took 161 µs a call
    against 92 µs for this loop.
    """
    conducts = _conducts(grid, state, exclude_lines)
    xfmr = grid.transformer_neighbours
    lines_at = grid.lines_at_bus
    hops = dict.fromkeys(seeds, 0)
    level = list(hops)
    step = 0
    while level:  # one hop further per round
        step += 1
        reached = []
        for bus in level:
            for other in xfmr.get(bus, ()):
                if other not in hops and other not in barrier:
                    hops[other] = step
                    reached.append(other)
            for line in lines_at.get(bus, ()):
                other = line.to_bus if line.from_bus == bus else line.from_bus
                if other in hops or other in barrier or not conducts(line):
                    continue
                hops[other] = step
                reached.append(other)
        level = reached
    return hops


def _unreached(seeds: Iterable[str], neighbours: Callable[[str], Iterable[str]],
               sources: frozenset[str]) -> set[str]:
    """Buses joined to some seed but to no source.

    One BFS per seed not yet classified. A BFS that reaches a source, or a
    bus an earlier BFS lit, stops and marks what it visited lit; one that
    uses up its component marks that component dark. Each bus is visited
    by at most one BFS, so the call visits at most the buses one flood of
    the whole grid would.
    """
    lit: set[str] = set()
    dark: set[str] = set()
    for seed in seeds:
        if seed in lit or seed in dark:
            continue
        seen = {seed}
        queue = deque(seen)
        reached = seed in sources
        while queue and not reached:
            for other in neighbours(queue.popleft()):
                if other in seen:
                    continue
                if other in sources or other in lit:
                    reached = True
                    break
                seen.add(other)
                queue.append(other)
        (lit if reached else dark).update(seen)
    return dark


def check_supply(grid: Grid, switch_state: dict[str, bool] | None = None) -> list[TopologyViolation]:
    """Every secondary substation and switching station must be energized."""
    energized = energized_buses(grid, switch_state)
    return [
        TopologyViolation("unsupplied", b.id, f"{b.kind} {b.id} has no energized path to a source")
        for b in grid.stations() if b.id not in energized
    ]


# ---------------------------------------------------------------------------
# Radiality
# ---------------------------------------------------------------------------

def _split_graph(grid: Grid, state: dict[str, bool]):
    """Split-node view used for radiality: busbars split per incident edge.

    Returns the logical conducting branches (exact parallels collapsed,
    transformers included) as tuples (node_u, node_v, key, is_line,
    line_ids) over split-aware node ids.
    """
    energized = _energized(grid, state)
    splitting = {b.id for b in grid.buses if b.kind in SPLITTING_KINDS and b.id in energized}

    groups: dict[tuple[str, str], list[str]] = {}
    for line in _conducting_lines(grid, state):
        if line.from_bus not in energized or line.to_bus not in energized:
            continue
        key = (min(line.from_bus, line.to_bus), max(line.from_bus, line.to_bus))
        groups.setdefault(key, []).append(line.id)

    def node(bus: str, key) -> tuple:
        return (bus, key) if bus in splitting else (bus,)

    edges = []
    for (u, v), line_ids in sorted(groups.items()):
        key = ("line", u, v)
        edges.append((node(u, key), node(v, key), key, True, tuple(sorted(line_ids))))
    for t in grid.transformers:
        if t.hv_bus in energized and t.lv_bus in energized:
            key = ("xfmr", t.id)
            edges.append((node(t.hv_bus, key), node(t.lv_bus, key), key, False, ()))
    return edges


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def check_radiality(grid: Grid, switch_state: dict[str, bool] | None = None) -> list[TopologyViolation]:
    """Open-ring operation check.

    With primary-substation and switching-station busbars split per incident
    branch, the conducting sub-graph must be a forest (no galvanic ring that
    avoids every busbar) and no component may tie together two feeder roots
    at primary busbars. Rings through a switching station busbar survive the
    splitting and are therefore permitted, as are exact parallel lines.
    """
    state = _state_map(grid, switch_state)
    edges = _split_graph(grid, state)
    primary = {b.id for b in grid.buses if b.kind == "primary_substation"}

    violations = []
    uf = _UnionFind()
    for u, v, key, is_line, line_ids in edges:
        if not uf.union(u, v) and is_line:
            violations.append(TopologyViolation(
                "closed_ring", line_ids[0],
                f"line {line_ids[0]} closes a galvanic ring that bypasses every busbar"))

    roots: dict = {}
    for u, v, key, is_line, line_ids in edges:
        if not is_line:
            continue
        for node in (u, v):
            if len(node) == 2 and node[0] in primary:
                roots.setdefault(uf.find(node), []).append(node[0])
    for attached in roots.values():
        if len(attached) > 1:
            buses = sorted(set(attached))
            element = buses[0] if len(buses) == 1 else ",".join(buses)
            violations.append(TopologyViolation(
                "feeder_coupling", element,
                f"{len(attached)} feeder roots at primary busbar(s) {', '.join(buses)} "
                f"are galvanically connected"))
    violations.sort(key=lambda v: (v.kind, v.element))
    return violations


def derive_radial_state(grid: Grid, switch_state: dict[str, bool] | None = None) -> dict[str, bool]:
    """Choose the normal-operation switch state: open rings, balanced cuts.

    Every conducting cycle of the bus graph is opened — including rings that
    run through station busbars, which are structurally legal but operated
    with a sectioning point in practice. Exact parallel branches count as one
    logical edge and stay closed (doubled supply). Each cut lands on the
    openable switch nearest the middle of the ring, measured in hops from
    where the ring hangs off the feeding tree. All infeeds hang off one
    virtual root, so a galvanic path between two infeeds is a ring through
    that root and is cut the same way. Returns a full switch-state map;
    violations without an openable switch are left for
    :func:`check_radiality`.
    """
    state = _state_map(grid, switch_state)
    for _ in range(len(grid.lines) + len(grid.switches) + 1):
        target = _pick_radiality_cut(grid, state)
        if target is None:
            return state
        state[target] = False
    return state


def _pick_radiality_cut(grid: Grid, state: dict[str, bool]) -> str | None:
    def openable(line_ids: tuple[str, ...]) -> list[Switch]:
        if len(line_ids) != 1:
            return []  # exact parallels stay one logical branch
        switches = [s for s in grid.switches_by_line.get(line_ids[0], ()) if state[s.id]]
        switches.sort(key=lambda s: (s.kind != "load_break", s.id))
        return switches

    # bus-level adjacency; parallel branches collapse into one logical edge
    bundles: dict[tuple, tuple[str, ...]] = {}
    for line in _conducting_lines(grid, state):
        key = ("L", frozenset((line.from_bus, line.to_bus)))
        bundles[key] = bundles.get(key, ()) + (line.id,)
    for t in grid.transformers:
        bundles.setdefault(("T", frozenset((t.hv_bus, t.lv_bus))), ())
    adj: dict[str | None, list[tuple[str | None, tuple, tuple[str, ...]]]] = {None: []}
    for key, line_ids in bundles.items():
        u, v = sorted(key[1])
        adj.setdefault(u, []).append((v, key, line_ids))
        adj.setdefault(v, []).append((u, key, line_ids))
    # the virtual root (None) joins every feed-in by an edge without lines
    for src in sorted(grid.source_buses):
        adj[None].append((src, ("S", src), ()))
        adj.setdefault(src, []).append((None, ("S", src), ()))

    # BFS forest from the root, so ring middles are measured from where
    # power enters; every non-tree edge closes a cycle
    prev: dict[str | None, tuple | None] = {}
    depth: dict[str | None, int] = {}
    closing: list[tuple[str, tuple[str, str], tuple]] = []
    for start in [None, *sorted(adj.keys() - {None})]:
        if start in prev:
            continue
        prev[start] = None
        depth[start] = 0
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for other, key, line_ids in sorted(adj[node], key=lambda e: str(e[1])):
                if other not in prev:
                    prev[other] = (node, key, line_ids)
                    depth[other] = depth[node] + 1
                    queue.append(other)
                    continue
                pn, po = prev[node], prev[other]
                if (pn is not None and pn[0] == other and pn[1] == key) or \
                        (po is not None and po[0] == node and po[1] == key):
                    continue  # the tree edge itself
                if node < other:  # record each closing edge once
                    sort_key = line_ids[0] if line_ids else str(key)
                    closing.append((sort_key, (node, other), (key, line_ids)))

    # lay each cycle out as a line from the point where it hangs off the
    # tree, then open the switch nearest its middle (balanced sectioning)
    for _, (a, b), closer in sorted(closing, key=lambda item: item[0]):
        up_a: list[tuple] = []
        up_b: list[tuple] = []
        x, y = a, b
        while depth[x] > depth[y]:
            px = prev[x]
            up_a.append(px[1:])
            x = px[0]
        while depth[y] > depth[x]:
            py = prev[y]
            up_b.append(py[1:])
            y = py[0]
        while x != y:
            px, py = prev[x], prev[y]
            up_a.append(px[1:])
            up_b.append(py[1:])
            x, y = px[0], py[0]
        seq = list(reversed(up_a)) + [closer] + up_b
        mid = (len(seq) - 1) / 2.0
        candidates = [
            (abs(i - mid), line_ids[0], openable(line_ids)[0].id)
            for i, (key, line_ids) in enumerate(seq) if openable(line_ids)]
        if candidates:
            return min(candidates)[2]
    return None


# ---------------------------------------------------------------------------
# Contingency supply / stubs (two-edge connectivity to the sources)
# ---------------------------------------------------------------------------

def conducting_path(grid: Grid, state: dict[str, bool], exclude_line: str,
                    start: str, goal: str) -> list[str] | None:
    """Line ids of a conducting path start -> goal that avoids
    ``exclude_line``, or None. Transformer couplings count as conducting
    but contribute no line id. Breadth first, lines before transformers at
    each bus, so the path is a shortest one in hops."""
    conducts = _conducts(grid, state, frozenset((exclude_line,)))
    lines_at = grid.lines_at_bus
    xfmr = grid.transformer_neighbours
    prev: dict[str, tuple[str, str | None] | None] = {start: None}
    queue = deque([start])
    while queue:
        bus = queue.popleft()
        if bus == goal:
            path = []
            while prev[bus] is not None:
                bus, line_id = prev[bus]
                if line_id is not None:
                    path.append(line_id)
            return path[::-1]
        for line in lines_at.get(bus, ()):
            other = line.to_bus if line.from_bus == bus else line.from_bus
            if other in prev or not conducts(line):
                continue
            prev[other] = (bus, line.id)
            queue.append(other)
        for other in xfmr.get(bus, ()):
            if other not in prev:
                prev[other] = (bus, None)
                queue.append(other)
    return None


def _bridge_analysis(grid: Grid):
    """Bridges and 2-edge-connected components of the all-switches-closable
    graph (in-service lines + transformers) with the virtual root (None)
    joined to every source bus, as a component tree.

    Returns the component of every node and, per component, its bridges
    as (other component, element id, is_line)."""
    nodes: list[str | None] = [None, *(b.id for b in grid.buses)]
    index = {bus: i for i, bus in enumerate(nodes)}
    edges: list[tuple[int, int, str, bool]] = [  # (u, v, element id, is_line)
        (0, index[b], b, False) for b in sorted(grid.source_buses) if b in index]
    for line in grid.lines:
        if line.in_service:
            edges.append((index[line.from_bus], index[line.to_bus], line.id, True))
    for t in grid.transformers:
        edges.append((index[t.hv_bus], index[t.lv_bus], t.id, False))

    adj: list[list[tuple[int, int]]] = [[] for _ in nodes]
    for ei, (u, v, _, _) in enumerate(edges):
        adj[u].append((ei, v))
        adj[v].append((ei, u))

    n = len(nodes)
    disc = [-1] * n
    low = [0] * n
    bridge = [False] * len(edges)
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        while stack:
            node, via, ptr = stack.pop()
            if ptr == 0:
                disc[node] = low[node] = timer
                timer += 1
            if ptr < len(adj[node]):
                stack.append((node, via, ptr + 1))
                ei, other = adj[node][ptr]
                if ei == via:
                    continue
                if disc[other] == -1:
                    stack.append((other, ei, 0))
                else:
                    low[node] = min(low[node], disc[other])
            elif via != -1:
                u, v, _, _ = edges[via]
                parent = u if disc[u] < disc[v] else v
                low[parent] = min(low[parent], low[node])
                if low[node] > disc[parent]:
                    bridge[via] = True

    # components of the graph without bridges
    comp = [-1] * n
    n_comp = 0
    for root in range(n):
        if comp[root] != -1:
            continue
        comp[root] = n_comp
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for ei, other in adj[node]:
                if not bridge[ei] and comp[other] == -1:
                    comp[other] = n_comp
                    queue.append(other)
        n_comp += 1

    tree: dict[int, list[tuple[int, str, bool]]] = {i: [] for i in range(n_comp)}
    for ei, (u, v, eid, is_line) in enumerate(edges):
        if bridge[ei]:
            tree[comp[u]].append((comp[v], eid, is_line))
            tree[comp[v]].append((comp[u], eid, is_line))
    return {bus: comp[i] for i, bus in enumerate(nodes)}, tree


def _weak_stations(grid: Grid, cuttable: Callable[[str], bool]) -> frozenset[str]:
    """Stations separable from every source by removing one cuttable line."""
    comp, tree = _bridge_analysis(grid)
    # safe: reached from the root's component across bridges that can never
    # fail; every other station hangs off the root behind a cuttable bridge
    safe = {comp[None]}
    queue = deque(safe)
    while queue:
        node = queue.popleft()
        for other, eid, is_line in tree[node]:
            if other not in safe and not (is_line and cuttable(eid)):
                safe.add(other)
                queue.append(other)

    return frozenset(b.id for b in grid.stations() if comp[b.id] not in safe)


def find_stubs(grid: Grid) -> frozenset[str]:
    """Stations that cannot survive every single line failure, even allowing
    arbitrary reconfiguration — exempt from the contingency-supply rule."""
    return _weak_stations(grid, cuttable=lambda line_id: True)


def check_contingency_supply(grid: Grid,
                             switch_state: dict[str, bool] | None = None) -> list[TopologyViolation]:
    """Each station flagged ``requires_contingency_supply`` must stay
    connectable to a source after removal of any single energized line,
    allowing arbitrary reconfiguration of the existing switches."""
    state = _state_map(grid, switch_state)
    energized = _energized(grid, state)
    energized_lines = {l.id for l in _conducting_lines(grid, state)
                       if l.from_bus in energized or l.to_bus in energized}
    weak = _weak_stations(grid, cuttable=lambda line_id: line_id in energized_lines)
    out = []
    for b in grid.stations():
        if b.requires_contingency_supply and b.id in weak:
            out.append(TopologyViolation(
                "no_second_path", b.id,
                f"station {b.id} loses its supply for some single line failure"))
    out.sort(key=lambda v: v.element)
    return out


# ---------------------------------------------------------------------------
# Feeders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Feeder:
    root: str  # busbar the feeder leaves from
    head_line: str  # first line of the feeder
    breaker: str | None  # circuit breaker switch at the root, if present
    buses: tuple[str, ...]
    lines: tuple[str, ...]


def find_feeders(grid: Grid, switch_state: dict[str, bool] | None = None) -> list[Feeder]:
    """Decompose the energized grid into feeders hanging off busbars.

    Intended for radially operated states: every energized bus that is not
    itself a busbar then belongs to exactly one feeder. Claiming starts at
    the busbars (primary and switching-station) nearest the sources in hops,
    ties broken by id, so a run between a primary busbar and a switching
    station belongs to the primary-side feeder. Every bus a claim reaches is
    energized, so each conducting line at it leads to an energized bus.
    """
    state = _state_map(grid, switch_state)
    hops = _flood(grid, state, _sources(grid), frozenset())
    busbars = [b.id for b in grid.buses if b.kind in SPLITTING_KINDS and b.id in hops]
    busbars.sort(key=lambda bid: (hops[bid], bid))
    busbar_set = set(busbars)
    conducts = _conducts(grid, state)
    lines_at = grid.lines_at_bus

    claimed_bus: set[str] = set()
    claimed_line: set[str] = set()
    feeders: list[Feeder] = []
    for busbar in busbars:
        for head in sorted(lines_at.get(busbar, ()), key=lambda l: l.id):
            if head.id in claimed_line or not conducts(head):
                continue
            claimed_line.add(head.id)
            buses: list[str] = []
            lines = [head.id]
            frontier = deque()
            first_hop = head.to_bus if head.from_bus == busbar else head.from_bus
            if first_hop not in busbar_set and first_hop not in claimed_bus:
                claimed_bus.add(first_hop)
                buses.append(first_hop)
                frontier.append(first_hop)
            while frontier:
                bus = frontier.popleft()
                for line in sorted(lines_at.get(bus, ()), key=lambda l: l.id):
                    if line.id in claimed_line or not conducts(line):
                        continue
                    claimed_line.add(line.id)
                    lines.append(line.id)
                    other = line.to_bus if line.from_bus == bus else line.from_bus
                    if other in busbar_set or other in claimed_bus:
                        continue
                    claimed_bus.add(other)
                    buses.append(other)
                    frontier.append(other)
            breaker = grid.switch_at.get((busbar, head.id))
            feeders.append(Feeder(
                root=busbar,
                head_line=head.id,
                breaker=breaker.id if breaker and breaker.kind == "circuit_breaker" else None,
                buses=tuple(sorted(buses)),
                lines=tuple(sorted(lines)),
            ))
    return feeders


def feeder_bays(grid: Grid) -> int:
    """Number of feeder bays at primary-substation MV busbars (protection
    devices are counted per bay, which also works for meshed operation)."""
    state = _state_map(grid, None)
    energized = _energized(grid, state)
    bays = 0
    for line in _conducting_lines(grid, state):
        if line.from_bus not in energized and line.to_bus not in energized:
            continue
        for end in (line.from_bus, line.to_bus):
            if end in grid.slack_buses:
                bays += 1
    return bays


# ---------------------------------------------------------------------------
# Fault simulation and resupply
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchAction:
    switch: str
    action: str  # open | close
    stage: str  # trip | isolate | resupply
    actuation: str  # protection_trip | manual | remote


@dataclass(frozen=True)
class SwitchingSequence:
    failed_line: str
    actions: tuple[SwitchAction, ...]
    resulting_state: dict[str, bool]
    unsupplied: tuple[str, ...]  # stations left without supply


@dataclass(frozen=True)
class FaultAnalysis:
    """Per-fault data used by the FMEA: who goes dark and who is restorable
    without a crew driving out."""

    failed_line: str
    tripped_breakers: tuple[str, ...]
    affected_stations: frozenset[str]
    remote_resuppliable: frozenset[str]


def _fault_closure(grid: Grid, failed: Line, state: dict[str, bool],
                   tie: Callable[[Switch | None], bool],
                   stop_at_breakers: bool = False,
                   lit: Callable[[str], bool] | None = None):
    """Galvanic closure of the fault on ``failed`` over untieable connections.

    The faulted line is severed at the fault spot, so the closure starts at
    each endpoint still tied through its own end connection. ``tie`` decides
    whether a (bus, line) connection can conduct into the closure; with
    ``stop_at_breakers`` closed circuit breakers block expansion and are
    collected as the protection devices that trip. With ``lit``, the search
    stops at the first bus of the closure that ``lit`` holds for and
    returns ``None`` in place of the buses.
    """
    buses: set[str] = set()
    bodies: set[str] = {failed.id}
    breakers: set[str] = set()

    def connection(bus: str, line: Line) -> bool:
        sw = grid.switch_at.get((bus, line.id))
        if sw is not None and not state[sw.id]:
            return False
        if stop_at_breakers and sw is not None and sw.kind == "circuit_breaker":
            breakers.add(sw.id)  # a closed breaker: it trips
            return False
        return tie(sw)

    queue: deque[str] = deque()
    for end in (failed.from_bus, failed.to_bus):
        if connection(end, failed) and end not in buses:
            if lit is not None and lit(end):
                return None, bodies, breakers
            buses.add(end)
            queue.append(end)
    while queue:
        bus = queue.popleft()
        for line in grid.lines_at_bus.get(bus, ()):
            if not line.in_service or line.id == failed.id or line.id in bodies:
                continue
            if not connection(bus, line):
                continue
            bodies.add(line.id)
            other = line.to_bus if line.from_bus == bus else line.from_bus
            if connection(other, line) and other not in buses:
                if lit is not None and lit(other):
                    return None, bodies, breakers
                buses.add(other)
                queue.append(other)
    return buses, bodies, breakers


def _closed_tie(state):
    return lambda sw: sw is None or state[sw.id]


def _non_remote_tie(state):
    return lambda sw: sw is None or (state[sw.id] and not sw.remote_controlled)


def _conducting_neighbours(grid: Grid, state: dict[str, bool],
                           exclude: frozenset[str]):
    """Neighbours of a bus over transformers and conducting lines not in
    ``exclude``: the graph :func:`_flood` walks."""
    conducts = _conducts(grid, state, exclude)
    xfmr = grid.transformer_neighbours
    lines_at = grid.lines_at_bus

    def neighbours(bus: str) -> Iterable[str]:
        yield from xfmr.get(bus, ())
        for line in lines_at.get(bus, ()):
            if conducts(line):
                yield line.to_bus if line.from_bus == bus else line.from_bus

    return neighbours


def _remote_neighbours(grid: Grid, state: dict[str, bool],
                       avoid_buses: set[str], avoid_bodies: set[str]):
    """Neighbours of a bus outside the fault closure (``avoid_buses``,
    ``avoid_bodies``, the failed line among them) when every open switch
    that is remote controlled may be closed: the existence check behind
    the FMEA's t_remote class."""
    switch_at = grid.switch_at
    xfmr = grid.transformer_neighbours
    lines_at = grid.lines_at_bus

    def passable(bus: str, line: Line) -> bool:
        sw = switch_at.get((bus, line.id))
        return sw is None or state[sw.id] or sw.remote_controlled

    def neighbours(bus: str) -> Iterable[str]:
        for other in xfmr.get(bus, ()):
            if other not in avoid_buses:
                yield other
        for line in lines_at.get(bus, ()):
            if not line.in_service or line.id in avoid_bodies:
                continue
            other = line.to_bus if line.from_bus == bus else line.from_bus
            if other not in avoid_buses and passable(bus, line) and passable(other, line):
                yield other

    return neighbours


def _darkened(grid: Grid, failed: Line, tripped: Iterable[str],
              post: dict[str, bool], pre: frozenset[str]) -> set[str]:
    """Buses of ``pre`` that the fault on ``failed`` and the trip of the
    breakers ``tripped`` (``post`` is the post-trip state) cut off from
    every source.

    Only the failed line and the lines of the tripped breakers stop
    conducting, so a bus that loses supply shares its post-trip component
    with an end of one of them, and the search starts at those ends.
    """
    cut = [failed, *(grid.lines_by_id[grid.switches_by_id[sid].line] for sid in tripped)]
    seeds = [end for line in cut for end in (line.from_bus, line.to_bus) if end in pre]
    return _unreached(seeds, _conducting_neighbours(grid, post, frozenset((failed.id,))),
                      grid.source_buses)


def _tripped(grid: Grid, failed: Line, state: dict[str, bool]) -> list[str]:
    """The closed breakers bounding the fault region, which trip."""
    _, _, breakers = _fault_closure(grid, failed, state, _closed_tie(state),
                                    stop_at_breakers=True)
    return sorted(breakers)


def _trip(grid: Grid, failed: Line, state: dict[str, bool]):
    """Protection trip: the tripped breakers and a copy of ``state`` with
    them open."""
    tripped = _tripped(grid, failed, state)
    post = dict(state)
    for sid in tripped:
        post[sid] = False
    return tripped, post


def fault_analysis(grid: Grid, failed_line: str,
                   switch_state: dict[str, bool] | None = None) -> FaultAnalysis:
    """Outage footprint of a single line fault.

    ``affected_stations`` lose supply with the protection trip;
    ``remote_resuppliable`` is the subset for which some purely
    remote-controlled switching set isolates the fault and restores supply.
    """
    state = _state_map(grid, switch_state)
    return _fault_analysis(grid, grid.lines_by_id[failed_line], state,
                           _energized(grid, state), {b.id for b in grid.stations()})


def _fault_analysis(grid: Grid, failed: Line, state: dict[str, bool],
                    pre: frozenset[str], stations: set[str]) -> FaultAnalysis:
    """:func:`fault_analysis` given the pre-fault energized buses and the
    station ids, which are the same for every fault of one FMEA. The
    tripped breakers are opened in ``state`` itself while the footprint is
    searched, and closed again before it returns."""
    if failed.from_bus not in pre and failed.to_bus not in pre:
        # nothing feeds the fault: no current, no trip, no outage
        return FaultAnalysis(failed.id, (), frozenset(), frozenset())
    tripped = _tripped(grid, failed, state)
    for sid in tripped:
        state[sid] = False
    try:
        affected = frozenset(_darkened(grid, failed, tripped, state, pre) & stations)
        f_buses, f_bodies, _ = _fault_closure(grid, failed, state, _non_remote_tie(state))
        seeds = affected - f_buses
        cut_off = _unreached(seeds, _remote_neighbours(grid, state, f_buses, f_bodies),
                             grid.source_buses)
    finally:
        for sid in tripped:
            state[sid] = True
    return FaultAnalysis(failed.id, tuple(tripped), affected, seeds - cut_off)


def resupply_sequence(grid: Grid, failed_line: str,
                      switch_state: dict[str, bool] | None = None) -> SwitchingSequence:
    """Switching sequence restoring supply after a fault on ``failed_line``.

    Stages: protection trip, isolation of the faulted line at its adjacent
    switches, then resupply (re-close tripped breakers where safe, close
    sectioning points until no further station comes back). Greedy closing
    picks the switch re-energizing the most dark stations; ties fall to the
    lowest switch id. A switch is safe to close if the fault zone it leaves
    touches no energized bus.

    The energized set after isolation is the pre-fault set minus what the
    fault darkens, searched from the lines it cuts. It is then grown, not
    searched again: closing one switch can only add the dark region behind
    its line, found by a search over dark buses from the line's dark end. A
    fault zone is traced only for a switch that would beat the best
    candidate so far, and the trace stops at the first bus that is
    energized or that the switch would light: re-closing a breaker on the
    failed line is refused at the line's end, without tracing the whole
    component behind it.

    Raises:
        ValueError: the line is not energized in the pre-fault state.
    """
    state = _state_map(grid, switch_state)
    failed = grid.lines_by_id.get(failed_line)
    if failed is None:
        raise ValueError(f"unknown line {failed_line!r}")
    pre = _energized(grid, state)
    if not _conducts(grid, state)(failed) or (
            failed.from_bus not in pre and failed.to_bus not in pre):
        raise ValueError(f"line {failed_line!r} is not energized in the pre-fault state")
    return _resupply(grid, failed, state, pre, {b.id for b in grid.stations()})


def _resupply(grid: Grid, failed: Line, state: dict[str, bool],
              pre: frozenset[str], stations: set[str]) -> SwitchingSequence:
    """:func:`resupply_sequence` of an energized, conducting line given the
    pre-fault energized buses and the station ids, which are the same for
    every fault of one N-1 check."""
    failed_line = failed.id
    actions: list[SwitchAction] = []
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

    # isolation opens only switches on the failed line, which is excluded
    energized = set(pre) - _darkened(grid, failed, tripped, state, pre)
    regions: dict[str, frozenset[str]] = {}  # dark bus -> its dark region
    switch_ids = grid.switch_ids_by_line

    def newly_lit(sw: Switch) -> frozenset[str]:
        """Buses that closing the open switch ``sw`` adds to the energized set."""
        line = grid.lines_by_id.get(sw.line)
        if line is None or not line.in_service or line.id == failed_line:
            return frozenset()
        if not all(state[s] for s in switch_ids[line.id] if s != sw.id):
            return frozenset()
        lit_from = line.from_bus in energized
        if lit_from == (line.to_bus in energized):
            return frozenset()
        start = line.to_bus if lit_from else line.from_bus
        region = regions.get(start)
        if region is None:
            region = frozenset(_flood(grid, state, (start,), excluded, energized))
            regions.update(dict.fromkeys(region, region))
        return region

    def feeds_fault(sid: str, added: frozenset[str]) -> bool:
        state[sid] = True
        try:
            zone, _, _ = _fault_closure(grid, failed, state, _closed_tie(state),
                                        lit=lambda bus: bus in energized or bus in added)
        finally:
            state[sid] = False
        return zone is None

    def close(sw: Switch, added: frozenset[str]) -> None:
        state[sw.id] = True
        energized.update(added)
        regions.clear()
        actions.append(SwitchAction(
            sw.id, "close", "resupply", "remote" if sw.remote_controlled else "manual"))

    # re-close tripped breakers unless they would feed the fault again
    for sid in tripped:
        sw = grid.switches_by_id[sid]
        added = newly_lit(sw)
        if not feeds_fault(sid, added):
            close(sw, added)

    supplied = pre & stations
    isolated = {a.switch for a in actions if a.stage == "isolate"}

    while True:
        dark = supplied - energized
        if not dark:
            break
        best: tuple[tuple[int, str], Switch, frozenset[str]] | None = None
        for sw in grid.switches:
            if state[sw.id] or sw.id in isolated:
                continue
            added = newly_lit(sw)
            gain = len(dark & added)
            rank = (-gain, sw.id)
            if gain and (best is None or rank < best[0]) and not feeds_fault(sw.id, added):
                best = (rank, sw, added)
        if best is None:
            break
        close(best[1], best[2])

    unsupplied = tuple(sorted(supplied - energized))
    return SwitchingSequence(failed_line, tuple(actions), state, unsupplied)
