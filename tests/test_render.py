import xml.etree.ElementTree as ET

import numpy as np

from explorebench.explorer import RunRecord, SelectorKind
from explorebench.gridmap import FREE, OCCUPIED, UNKNOWN, OccupancyGrid, Pose
from explorebench.render import CELL_PX, run_svg
from explorebench.scoring import HeuristicParams

SVG = "{http://www.w3.org/2000/svg}"
STATE_OF_FILL = {"#c9ccd1": UNKNOWN, "#ffffff": FREE, "#30343a": OCCUPIED}


def test_map_cells_are_maximal_row_runs(rng):
    for _ in range(20):
        h, w = rng.randint(1, 9), rng.randint(1, 9)
        # Few states per row, so runs of several cells are common.
        states = np.repeat(rng.randint(0, 3, (h, w)), rng.randint(1, 4), axis=1)[:, :w]
        states = states.astype(np.uint8)
        record = RunRecord(SelectorKind("nearest"), HeuristicParams(), Pose(0.0, 0.0),
                           final_belief=OccupancyGrid(w, h, 0.25, states,
                                                      np.zeros_like(states)))
        panel = ET.fromstring(run_svg(record)).find(f"{SVG}g")
        drawn = np.full((h, w), 255, dtype=np.uint8)
        last = {}
        for rect in panel.iter(f"{SVG}rect"):
            i, j = int(rect.get("x")) // CELL_PX, int(rect.get("y")) // CELL_PX
            n = int(rect.get("width")) // CELL_PX
            state = STATE_OF_FILL[rect.get("fill")]
            assert (drawn[j, i : i + n] == 255).all()
            assert last.get(j) != state  # neighbouring runs differ
            drawn[j, i : i + n] = state
            last[j] = state
        assert np.array_equal(drawn, states)
