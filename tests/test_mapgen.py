import hashlib

import numpy as np
import pytest
from scipy import ndimage

from explorebench.gridmap import FREE, OCCUPIED
from explorebench.mapgen import TIERS, generate_map, pick_start


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
