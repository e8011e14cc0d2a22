#!/usr/bin/env python3
"""Two identical goal instances, one sealed behind obstacles.

The heat never enters the sealed pocket, so its instance contributes nothing
to the score field outside; the robot is pulled to the reachable one with no
explicit goal verification anywhere.
"""

from pathlib import Path

import numpy as np

import heatplan as hp

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

m = hp.generate_map("drop_region", seed=21, cells=128, n_labels=3, seal_duplicate=True)
dup = m.regions[0].label
instances = m.regions_with_label(dup)
mask = hp.flood_fill(m, instances[0].cells[0])
sealed = [not mask[reg.cells[0][1], reg.cells[0][0]] for reg in instances]
print(f"label {dup!r} has {len(instances)} instances; sealed flags: {sealed}")

rows, cols = np.nonzero(mask)
i = int(np.argmax(rows))
start = ((cols[i] + 0.5) * m.cell_size[0], (rows[i] + 0.5) * m.cell_size[1])
scenario = hp.Scenario(m, (hp.RobotSpec("r0", f"move to the {dup}", start),), seed=2)
result = hp.plan(scenario)

final = result.trajectories[0].micro_steps[-1]
dists = [
    min(np.linalg.norm(final - hp.cell_center(c, m)) for c in reg.cells) for reg in instances
]
print(f"success: {result.success}")
for reg, d, s in zip(instances, dists, sealed):
    print(f"  distance to {'sealed' if s else 'open'} instance: {d:.3f}")

spec = hp.RenderSpec(layers=("occupancy", "regions", "trajectories", "starts"))
(OUT / "ood.svg").write_text(hp.render_svg(m, spec, trajectories=result.trajectories))
print("wrote ood.svg")
