import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from explorebench.gridmap import FREE, OCCUPIED, UNKNOWN, MapError, OccupancyGrid
from explorebench.mapgen import TIERS, generate_map, pick_start
from reference import reference_pick_start


def grid_of(states):
    """A truth over states; pick_start reads no cost."""
    h, w = states.shape
    return OccupancyGrid(w, h, 0.25, states, np.zeros_like(states))


def assert_same_start(truth, seed):
    try:
        expected = reference_pick_start(truth, seed)
    except MapError:
        with pytest.raises(MapError, match="no free cell"):
            pick_start(truth, seed)
    else:
        assert pick_start(truth, seed) == expected


class TestGenerateMap:
    @pytest.mark.parametrize("tier", TIERS)
    def test_deterministic(self, tier):
        a = generate_map(tier, seed=42)
        b = generate_map(tier, seed=42)
        assert (a.states == b.states).all()
        assert (a.costs == b.costs).all()

    @pytest.mark.parametrize("tier", TIERS)
    def test_seed_changes_layout(self, tier):
        a = generate_map(tier, seed=1)
        b = generate_map(tier, seed=2)
        assert (a.states != b.states).any()

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("seed", [1, 7, 100, 1234])
    def test_fully_connected_free_space(self, tier, seed):
        grid = generate_map(tier, seed)
        free = grid.states == FREE
        assert free.any()
        _, count = ndimage.label(free, structure=ndimage.generate_binary_structure(2, 1))
        assert count == 1

    def test_border_is_walled(self):
        grid = generate_map("medium", seed=5)
        assert (grid.states[0, :] == OCCUPIED).all()
        assert (grid.states[-1, :] == OCCUPIED).all()
        assert (grid.states[:, 0] == OCCUPIED).all()
        assert (grid.states[:, -1] == OCCUPIED).all()

    def test_tier_sizes_increase(self):
        low = generate_map("low", 1)
        med = generate_map("medium", 1)
        high = generate_map("high", 1)
        assert low.width < med.width < high.width

    def test_unknown_never_present(self):
        grid = generate_map("high", 3)
        assert set(np.unique(grid.states)) <= {FREE, OCCUPIED}

    @pytest.mark.pinned
    def test_layouts_pinned(self):
        # Any change to the generator's draws or their order moves this.
        digest = hashlib.sha256()
        for tier in TIERS:
            for seed in range(30):
                digest.update(generate_map(tier, seed).states.tobytes())
        assert digest.hexdigest() == ("ade7b902e97951b7ec441349294b8bc4"
                                      "1e932db888652209b33bf6035ddc8dca")

    def test_bad_tier(self):
        with pytest.raises(ValueError):
            generate_map("extreme", 1)


class TestPickStart:
    def test_deterministic_and_free(self):
        truth = generate_map("medium", seed=9)
        a = pick_start(truth, 4)
        b = pick_start(truth, 4)
        assert (a.x, a.y, a.theta) == (b.x, b.y, b.theta)
        i, j = truth.world_to_cell(a.x, a.y)
        assert truth.states[j, i] == FREE

    def test_seed_varies_start(self):
        truth = generate_map("medium", seed=9)
        starts = {(pick_start(truth, s).x, pick_start(truth, s).y)
                  for s in range(8)}
        assert len(starts) > 1

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        # Any shape up to 40x40, often narrower or shorter than the five
        # cells an interior needs, with a Free share from none to nearly all.
        h, w = data.draw(st.one_of(
            st.tuples(st.integers(1, 40), st.integers(1, 40)),
            st.tuples(st.integers(1, 4), st.integers(1, 40)),
            st.tuples(st.integers(1, 40), st.integers(1, 4))), label="shape")
        share = data.draw(st.sampled_from([0.0, 0.01, 0.2, 0.6, 1.0]), label="free share")
        rng = np.random.RandomState(data.draw(st.integers(0, 2**32 - 1), label="layout"))
        states = rng.choice(np.array([UNKNOWN, OCCUPIED], dtype=np.uint8), size=(h, w))
        states[rng.rand(h, w) < share] = FREE
        if data.draw(st.booleans(), label="rim only"):
            states[2 : h - 2, 2 : w - 2] = OCCUPIED
        assert_same_start(grid_of(states), data.draw(st.integers(0, 10**6), label="seed"))

    @pytest.mark.parametrize("h, w", [(1, 1), (4, 4), (5, 5), (3, 40), (40, 2), (40, 40)])
    def test_rim_only_and_no_free_cell(self, h, w):
        states = np.full((h, w), FREE, dtype=np.uint8)
        states[2 : h - 2, 2 : w - 2] = OCCUPIED
        for seed in range(5):
            assert_same_start(grid_of(states), seed)
        states[:] = OCCUPIED
        with pytest.raises(MapError, match="no free cell"):
            pick_start(grid_of(states), 0)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("map_seed", [1, 7, 100, 2027])
    def test_generated_maps_match_reference(self, tier, map_seed):
        truth = generate_map(tier, map_seed)
        for seed in range(6):
            assert_same_start(truth, seed)

    def test_large_map_memory_bounded(self):
        # A list of every Free cell's indices peaked at about 32 MB here.
        states = np.full((1014, 1014), FREE, dtype=np.uint8)
        states[[0, -1], :] = states[:, [0, -1]] = OCCUPIED
        truth = grid_of(states)
        tracemalloc.start()
        try:
            pick_start(truth, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
