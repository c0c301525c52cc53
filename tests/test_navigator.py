import hashlib
import heapq
import math

import numpy as np
import pytest
from scipy import ndimage

from conftest import grid_from_rows, remap_cost
from reference import reference_plan
from explorebench.gridmap import (COST_INSCRIBED, FREE, OCCUPIED, UNKNOWN,
                                  OccupancyGrid, Pose, inflate)
from explorebench.navigator import (SQRT2, KinematicState, NoPathError,
                                    _nearest_traversable, advance, plan_path,
                                    traversable_mask)

COST_WEIGHT = 3.0
RELAX = 5


def edge_weight(belief, cell, nxt, cost_weight=COST_WEIGHT):
    """Weight of the step cell -> nxt: length times the cost multiplier of nxt."""
    step = SQRT2 if cell[0] != nxt[0] and cell[1] != nxt[1] else 1.0
    ni, nj = nxt
    return step * belief.resolution * (1.0 + cost_weight * remap_cost(belief.costs[nj, ni]))


def planner_mask(belief, start_cell):
    """Cells plan_path may stand on: the traversable ones plus the start."""
    trav = traversable_mask(belief)
    trav[start_cell[1], start_cell[0]] = True
    return trav


def dijkstra_cost(belief, start_cell, goal_cell, cost_weight=COST_WEIGHT):
    """Independent oracle over the same weighted 8-connected graph."""
    trav = planner_mask(belief, start_cell)
    dist = {start_cell: 0.0}
    heap = [(0.0, start_cell)]
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]
    while heap:
        d, (ci, cj) = heapq.heappop(heap)
        if (ci, cj) == goal_cell:
            return d
        if d > dist.get((ci, cj), math.inf):
            continue
        for di, dj in steps:
            ni, nj = ci + di, cj + dj
            if not belief.in_bounds(ni, nj) or not trav[nj, ni]:
                continue
            if di and dj and not (trav[cj, ni] and trav[nj, ci]):
                continue
            nd = d + edge_weight(belief, (ci, cj), (ni, nj), cost_weight)
            if nd < dist.get((ni, nj), math.inf):
                dist[(ni, nj)] = nd
                heapq.heappush(heap, (nd, (ni, nj)))
    return None


def assert_valid_path(belief, path, start_cell, cost_weight=COST_WEIGHT):
    """The waypoints are a legal walk from the start, priced like the oracle.

    Consecutive cells are 8-adjacent, every cell after the start is
    traversable, diagonal steps never cut a corner, and the oracle's edge
    weights summed from 0.0 in path order give total_cost exactly.
    """
    trav = planner_mask(belief, start_cell)
    cells = [belief.world_to_cell(x, y) for x, y in path.waypoints]
    assert cells[0] == start_cell
    assert all(traversable_mask(belief)[j, i] for i, j in cells[1:])
    total = 0.0
    for (a, b), (c, d) in zip(cells, cells[1:]):
        assert max(abs(a - c), abs(b - d)) == 1
        assert trav[b, c] and trav[d, a]
        total += edge_weight(belief, (a, b), (c, d), cost_weight)
    assert total == path.total_cost


def embed_in_unknown(states, rng):
    """Place states at a random offset inside a larger all-Unknown grid."""
    h, w = states.shape
    framed = np.full((h + rng.randint(2, 16), w + rng.randint(2, 16)), UNKNOWN,
                     dtype=np.uint8)
    oj = rng.randint(1, framed.shape[0] - h)
    oi = rng.randint(1, framed.shape[1] - w)
    framed[oj:oj + h, oi:oi + w] = states
    return framed


def diagonal_gap_scene(rng, thin):
    """A Free/Occupied rectangle framed in Unknown, a start on one of its
    corners and a goal cell inside it, as (states, start cell, goal cell).

    With thin 1 the rectangle is one cell tall, with thin 2 one cell wide,
    and one cell in seven is a wall. Otherwise three cells in ten are, which
    leaves many 2x2 blocks with three Free cells: a diagonal step with
    exactly one blocked cardinal, which the search must refuse.
    """
    h = 1 if thin == 1 else rng.randint(2, 13)
    w = 1 if thin == 2 else rng.randint(2, 13)
    states = np.where(rng.rand(h, w) < (0.15 if thin else 0.3), OCCUPIED, FREE).astype(np.uint8)
    sj, si = rng.randint(2) * (h - 1), rng.randint(2) * (w - 1)
    states[sj, si] = FREE
    (oj, pj), (oi, pi) = rng.randint(1, 4, size=(2, 2))
    states = np.pad(states, ((oj, pj), (oi, pi)), constant_values=UNKNOWN)
    return states, (si + oi, sj + oj), (rng.randint(w) + oi, rng.randint(h) + oj)


def pinned_plan_outcomes(count):
    """repr of (waypoints, total_cost), or the error name, of seeded plans.

    Mixed Free/Occupied/Unknown grids at three resolutions, half of them
    inside a larger Unknown frame; starts anywhere
    in a non-Occupied cell (Unknown frame cells included), goals anywhere
    in or near the grid, often on untraversable cells, with relaxation
    radii 0-6 and four cost weights. Two draws per case once set a grid
    origin; they stay in the stream, unused, so the cases stay the same.
    """
    rng = np.random.RandomState(6)
    for case in range(count):
        h, w = rng.randint(4, 29), rng.randint(4, 29)
        states = np.where(rng.rand(h, w) < rng.choice([0.05, 0.15, 0.3]),
                          OCCUPIED, FREE).astype(np.uint8)
        states[rng.rand(h, w) < rng.choice([0.0, 0.05, 0.2])] = UNKNOWN
        if case % 2:
            states = embed_in_unknown(states, rng)
        h, w = states.shape
        res = float(rng.choice([0.1, 0.25, 0.5]))
        rng.uniform(-5, 5, size=2)
        belief = OccupancyGrid(w, h, res, states, np.zeros_like(states))
        inflate(belief, 0.12, 0.5, 4.0)
        trav = traversable_mask(belief)
        pool = np.argwhere(trav) if trav.any() and rng.rand() < 0.85 else \
            np.argwhere(states != OCCUPIED)
        sj, si = pool[rng.randint(len(pool))]
        sx, sy = belief.cell_center(int(si), int(sj))
        start = Pose(sx + rng.uniform(-0.49, 0.49) * res,
                     sy + rng.uniform(-0.49, 0.49) * res)
        goal = (rng.uniform(-2, w + 2) * res, rng.uniform(-2, h + 2) * res)
        cost_weight = float(rng.choice([0.0, 1.0, 3.0, 7.5]))
        try:
            path = plan_path(belief, start, goal, cost_weight, rng.randint(0, 7))
        except NoPathError:
            yield "NoPathError"
            continue
        yield repr((path.waypoints, path.total_cost))


class TestPlanPath:
    def test_straight_corridor(self):
        belief = grid_from_rows(["#######", "#.....#", "#######"], resolution=0.5,
                                inflation=None, inflate_costs=False)
        path = plan_path(belief, Pose(*belief.cell_center(1, 1)),
                         belief.cell_center(5, 1), COST_WEIGHT, RELAX)
        assert len(path.waypoints) == 5
        ys = {y for _, y in path.waypoints}
        assert len(ys) == 1
        assert path.expanded == 4  # every cell before the goal, nothing else

    def test_detour_cost_matches_dijkstra(self):
        belief = grid_from_rows([
            ".........",
            ".........",
            "..#######",
            ".........",
            ".........",
        ], resolution=0.5)
        start, goal = (0, 1), (8, 4)
        path = plan_path(belief, Pose(*belief.cell_center(*start)),
                         belief.cell_center(*goal), COST_WEIGHT, RELAX)
        oracle = dijkstra_cost(belief, start, goal)
        assert path.total_cost == pytest.approx(oracle, rel=1e-9)

    def test_random_grids_match_dijkstra(self, rng):
        # The first 30 grids touch every edge of the map; the next 30 sit
        # in a larger Unknown frame, so the search box starts away from
        # cell (0, 0) and from the borders.
        count = 0
        while count < 60:
            embed = count >= 30
            h, w = rng.randint(6, 33), rng.randint(6, 33)
            states = np.where(rng.rand(h, w) < 0.25, OCCUPIED, FREE).astype(np.uint8)
            states[rng.rand(h, w) < 0.1] = UNKNOWN
            if embed:
                states = embed_in_unknown(states, rng)
                h, w = states.shape
            belief = OccupancyGrid(w, h, 0.25, states, np.zeros_like(states))
            inflate(belief, 0.12, 0.5, 4.0)
            trav = traversable_mask(belief)
            cells = np.argwhere(trav)
            if len(cells) < 2:
                continue
            sj, si = (int(v) for v in cells[rng.randint(len(cells))])
            gj, gi = (int(v) for v in cells[rng.randint(len(cells))])
            oracle = dijkstra_cost(belief, (si, sj), (gi, gj))
            try:
                path = plan_path(belief, Pose(*belief.cell_center(si, sj)),
                                 belief.cell_center(gi, gj), COST_WEIGHT, 0)
            except NoPathError:
                assert oracle is None
                count += 1
                continue
            assert oracle is not None
            assert path.total_cost == pytest.approx(oracle, rel=1e-9)
            assert belief.world_to_cell(*path.waypoints[-1]) == (gi, gj)
            assert_valid_path(belief, path, (si, sj))
            count += 1

    def test_plans_pinned(self):
        # sha256 of 200 seeded plans. The Dijkstra oracle checks only
        # costs; this also catches a change in how ties break.
        digest = hashlib.sha256()
        for outcome in pinned_plan_outcomes(200):
            digest.update(outcome.encode() + b"\n")
        assert digest.hexdigest() == (
            "4c21012990a06641d0495a0346cfbb2cb82fe628ca1c031b91a984356fb58190")

    def test_matches_reference_search(self):
        # Exact equality with the whole-grid tuple-keyed A* (tests/reference.py):
        # waypoints, cost, expansions and NoPathError. Open grids at
        # cost_weight 0 have many equal-f ties. Mirror grids are symmetric
        # about the row or column that holds start and goal, so each detour
        # has a twin of equal cost and the step order alone picks one.
        # Other grids sit in Unknown frames, start on Unknown or inflated
        # cells, or aim at untraversable goals that must relax. Box grids
        # know one rectangle, or no cell at all; their starts are Unknown
        # cells, often next to the rectangle, and their goals lie outside it,
        # to relax into it or find no candidate. Gap grids (diagonal_gap_scene)
        # block exactly one cardinal of many diagonals, know a rectangle one
        # cell wide or tall, and start on a corner of the known box.
        rng = np.random.RandomState(17)
        seen = dict.fromkeys(("mirror detour", "framed", "odd start", "relaxed",
                              "no path", "start alone", "start outside box",
                              "relaxed into box", "no candidate", "one-cardinal gap",
                              "thin box", "corner start"), 0)
        for case in range(600):
            kind = (("open", "mirror", "mixed", "relax")[case % 4] if case < 400
                    else "box" if case < 500 else "gap")
            if kind == "gap":
                states, (si, sj), (gi, gj) = diagonal_gap_scene(rng, max(case % 4 - 1, 0))
            else:
                h, w = rng.randint(2, 50), rng.randint(2, 50)
                wall = (rng.choice([0.0, 0.03]) if kind in ("open", "box")
                        else rng.choice([0.05, 0.15, 0.3]))
                states = np.where(rng.rand(h, w) < wall, OCCUPIED, FREE).astype(np.uint8)
            if kind == "box":
                rect = np.zeros((h, w), dtype=bool)
                if case % 10:
                    j0, i0 = rng.randint(h), rng.randint(w)
                    rect[j0:rng.randint(j0, h) + 1, i0:rng.randint(i0, w) + 1] = True
                states[~rect] = UNKNOWN
            if kind in ("mixed", "relax"):
                states[rng.rand(h, w) < rng.choice([0.0, 0.05, 0.2])] = UNKNOWN
            if kind == "mirror":
                si, gi = (int(v) for v in rng.randint(w, size=2))
                states[-1, [si, gi]] = FREE
                states = np.vstack([states, states[-2::-1]])
                (si, sj), (gi, gj), axis = (si, h - 1), (gi, h - 1), 1
                if rng.rand() < 0.5:
                    states = states.T.copy()
                    (si, sj), (gi, gj), axis = (sj, si), (gj, gi), 0
            elif kind != "gap" and rng.rand() < 0.5:
                states = embed_in_unknown(states, rng)
                seen["framed"] += 1
            h, w = states.shape
            res = float(rng.choice([0.1, 0.25, 0.5]))
            belief = OccupancyGrid(w, h, res, states, np.zeros_like(states))
            inflate(belief, 0.12, 0.5, 4.0)
            trav = traversable_mask(belief)
            blocked = np.argwhere(~trav)
            if kind in ("mirror", "gap"):
                goal = belief.cell_center(gi, gj)
            elif kind == "box":
                if rect.all():
                    continue
                cells = []
                for k in (1, 4):  # starts next to the rectangle, goals within 4 cells
                    near = ndimage.binary_dilation(rect, iterations=k) & ~rect
                    pool = np.argwhere(near if near.any() and rng.rand() < 0.8 else ~rect)
                    cells.append([int(v) for v in pool[rng.randint(len(pool))]])
                (sj, si), (gj, gi) = cells
                goal = belief.cell_center(gi, gj)
            else:
                odd = np.argwhere((states != OCCUPIED) & ~trav)
                pool = odd if len(odd) and rng.rand() < 0.3 or not trav.any() else np.argwhere(trav)
                sj, si = (int(v) for v in pool[rng.randint(len(pool))])
                if kind == "relax" and len(blocked):
                    gj, gi = blocked[rng.randint(len(blocked))]
                    goal = belief.cell_center(int(gi), int(gj))
                else:
                    goal = (rng.uniform(-1, w + 1) * res, rng.uniform(-1, h + 1) * res)
            cost_weight = 0.0 if kind == "open" else float(rng.choice([0.0, 1.0, 3.0, 7.5]))
            args = (belief, Pose(*belief.cell_center(si, sj)), goal, cost_weight,
                    rng.randint(0, 7))
            try:
                expected = reference_plan(*args)
            except NoPathError as e:
                expected = str(e)
                seen["no path"] += 1
            try:
                path = plan_path(*args)
                got = (path.waypoints, path.total_cost, path.expanded)
            except NoPathError as e:
                got = str(e)
            assert got == expected, case
            if kind == "box":
                seen["start alone"] += not rect.any()
                seen["no candidate"] += expected == (
                    "goal cell untraversable and no relaxation candidate")
                if not isinstance(expected, str) and len(expected[0]) > 1:
                    ei, ej = belief.world_to_cell(*expected[0][-1])
                    seen["start outside box"] += 1
                    seen["relaxed into box"] += bool(rect[ej, ei])
            if kind == "gap" and not isinstance(expected, str) and len(expected[0]) > 1:
                blocks = trav[:-1, :-1] * 1 + trav[:-1, 1:] + trav[1:, :-1] + trav[1:, 1:]
                seen["one-cardinal gap"] += case % 4 < 2 and bool((blocks == 3).any())
                seen["thin box"] += case % 4 >= 2
                seen["corner start"] += 1
            if not isinstance(expected, str):
                gi, gj = belief.world_to_cell(*goal)
                gi, gj = min(max(gi, 0), w - 1), min(max(gj, 0), h - 1)
                seen["odd start"] += not trav[sj, si]
                seen["relaxed"] += not trav[gj, gi]
                seen["mirror detour"] += kind == "mirror" and len(
                    {belief.world_to_cell(*p)[axis] for p in expected[0]}) > 1
        assert min(seen.values()) >= 10, seen

    def test_goal_relaxes_to_nearest_traversable(self):
        belief = grid_from_rows([
            ".....",
            ".....",
            "...##",
            "...##",
        ], resolution=0.5)
        # Goal on the occupied block relaxes to a free cell 2 cells away
        # under inflation; the path must end off the block.
        path = plan_path(belief, Pose(*belief.cell_center(0, 0)),
                         belief.cell_center(4, 3), COST_WEIGHT, RELAX)
        end = belief.world_to_cell(*path.waypoints[-1])
        assert belief.states[end[1], end[0]] == FREE
        assert belief.costs[end[1], end[0]] < COST_INSCRIBED

    def test_relaxation_matches_window_scan(self, rng):
        # Oracle: scan the square window, keep the smallest
        # (squared distance, flat index) key.
        for _ in range(2000):
            h, w = rng.randint(1, 16), rng.randint(1, 16)
            trav = rng.rand(h, w) < rng.choice([0.02, 0.2, 0.6])
            gi, gj = rng.randint(w), rng.randint(h)
            radius = rng.randint(-2, 8)
            keys = [((i - gi) ** 2 + (j - gj) ** 2, j * w + i, (i, j))
                    for j in range(gj - radius, gj + radius + 1)
                    for i in range(gi - radius, gi + radius + 1)
                    if 0 <= i < w and 0 <= j < h and trav[j, i]]
            expected = min(keys)[2] if keys else None
            assert _nearest_traversable(trav, gi, gj, radius) == expected

    def test_no_path_raises(self):
        belief = grid_from_rows([
            ".#.",
            ".#.",
            ".#.",
        ], resolution=0.5, inflate_costs=False)
        with pytest.raises(NoPathError):
            plan_path(belief, Pose(*belief.cell_center(0, 0)),
                      belief.cell_center(2, 0), COST_WEIGHT, 0)

    def test_unknown_is_untraversable(self):
        belief = grid_from_rows([
            ".?.",
            ".?.",
            ".?.",
        ], resolution=0.5, inflate_costs=False)
        with pytest.raises(NoPathError):
            plan_path(belief, Pose(*belief.cell_center(0, 0)),
                      belief.cell_center(2, 1), COST_WEIGHT, 0)

    def test_waypoints_are_8_adjacent_and_safe(self):
        belief = grid_from_rows([
            "..........",
            "....##....",
            "....##....",
            "..........",
        ], resolution=0.5)
        path = plan_path(belief, Pose(*belief.cell_center(0, 0)),
                         belief.cell_center(9, 3), COST_WEIGHT, RELAX)
        cells = [belief.world_to_cell(x, y) for x, y in path.waypoints]
        for (a, b), (c, d) in zip(cells, cells[1:]):
            assert max(abs(a - c), abs(b - d)) == 1
        for i, j in cells[1:]:
            assert belief.states[j, i] == FREE
            assert belief.costs[j, i] < COST_INSCRIBED


class TestAdvance:
    def _free_belief(self, n=41, res=0.25):
        return grid_from_rows(["." * n] * n, resolution=res)

    def test_waypoint_directly_ahead(self):
        belief = self._free_belief()
        pose, kin = Pose(2.0, 2.0, 0.0), KinematicState(v_max=0.4, w_max=2.0, dt=0.25)
        target = (2.0 + 10 * 0.4 * 0.25, 2.0)
        waypoints = [target]
        moved = 0.0
        for _ in range(10):
            moved += advance(pose, kin, waypoints, belief)
        # The waypoint pops once inside the half-cell capture radius, so the
        # traveled distance matches to within that radius.
        assert moved == pytest.approx(10 * 0.4 * 0.25, abs=0.5 * belief.resolution)
        assert math.hypot(pose.x - target[0], pose.y - target[1]) <= 0.5 * belief.resolution
        assert waypoints == []

    def test_waypoint_behind_rotates_first(self):
        belief = self._free_belief()
        pose, kin = Pose(3.0, 3.0, 0.0), KinematicState(v_max=0.5, w_max=1.0, dt=0.25)
        waypoints = [(1.0, 3.0)]
        moved_first = advance(pose, kin, waypoints, belief)
        assert moved_first == 0.0
        total = moved_first
        for _ in range(40):
            total += advance(pose, kin, waypoints, belief)
        assert total > 0.0

    def test_empty_path_noop(self):
        belief = self._free_belief()
        pose, kin = Pose(1.0, 1.0, 0.5), KinematicState(v_max=0.5, w_max=1.0, dt=0.25)
        before = (pose.x, pose.y, pose.theta)
        assert advance(pose, kin, [], belief) == 0.0
        assert (pose.x, pose.y, pose.theta) == before

    def test_never_enters_occupied_cell(self):
        belief = grid_from_rows([
            ".....",
            ".....",
            "..#..",
            ".....",
        ], resolution=0.5)
        pose = Pose(*belief.cell_center(2, 1))
        kin = KinematicState(v_max=2.0, w_max=4.0, dt=0.5)
        waypoints = [belief.cell_center(2, 2)]  # points into the wall
        for _ in range(20):
            advance(pose, kin, waypoints, belief)
            ci, cj = belief.world_to_cell(pose.x, pose.y)
            assert belief.states[cj, ci] != OCCUPIED

    def test_per_tick_distance_bounded(self, rng):
        belief = self._free_belief()
        pose, kin = Pose(5.0, 5.0, 0.0), KinematicState(v_max=0.7, w_max=2.0, dt=0.2)
        for _ in range(50):
            waypoints = [(float(rng.uniform(1, 9)), float(rng.uniform(1, 9)))]
            moved = advance(pose, kin, waypoints, belief)
            assert moved <= kin.v_max * kin.dt + 1e-12


def test_kinematic_state_validation():
    with pytest.raises(ValueError):
        KinematicState(v_max=0.0)
    with pytest.raises(ValueError):
        KinematicState(w_max=-1.0)
    with pytest.raises(ValueError):
        KinematicState(dt=0.0)
    for field in ("v_max", "w_max", "dt"):
        with pytest.raises(ValueError):
            KinematicState(**{field: math.nan})
    # pi / (w_max * dt), the ticks of a half turn, overflows or divides by 0.
    for w_max in (1e-320, 5e-324):
        with pytest.raises(ValueError):
            KinematicState(w_max=w_max, dt=0.25)
