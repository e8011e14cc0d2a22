#!/usr/bin/env python3
"""Solve the obstacle-insulated heat ladder on a room map and look at it.

Renders heat snapshots and score-field arrows at a coarse, a mid, and a fine
diffusion step, and prints the conservation numbers the solver guarantees.
"""

from pathlib import Path

import numpy as np

import heatplan as hp
from heatplan import heatfield as hf

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

m = hp.generate_map("room", seed=3, cells=128, n_labels=3)
label = m.labels()[0]
print(f"map {m.name}, heat source = region {label!r}")

schedule = hp.build_schedule()  # T=20, sigma 0.01..0.7
states = hf.solve_to_times(m.regions_with_label(label), m, schedule)

print(f"{'t':>3} {'sigma':>7} {'heat time':>10} {'mass drift':>11} {'obstacle mass':>13}")
for t in (1, 5, 10, 15, 20):
    s = states[t - 1]
    drift = abs(float(s.u.sum()) - 1.0)
    print(f"{t:>3} {schedule.sigma_at(t):>7.3f} {s.time:>10.5f} {drift:>11.2e} {float(s.u[m.occupancy].sum()):>13.1f}")

for t in (20, 12, 6):
    s = states[t - 1]
    field = hf.build_score_field(s, t=t)
    spec = hp.RenderSpec(layers=("occupancy", "heat", "regions"), stride=4)
    (OUT / f"heat_t{t:02d}.svg").write_text(hp.render_svg(m, spec, heat=s))
    spec = hp.RenderSpec(layers=("occupancy", "field_arrows", "regions"), stride=4)
    (OUT / f"score_t{t:02d}.svg").write_text(hp.render_svg(m, spec, score_field=field))
    print(f"wrote heat_t{t:02d}.svg / score_t{t:02d}.svg  (support covers "
          f"{field.supported.sum() / m.free.sum():.0%} of free space)")

# sampling from the perturbed distribution never lands in obstacles
rng = np.random.default_rng(0)
pts = hf.sample_heat(states[14], rng, 20_000)
cols = (pts[:, 0] / m.cell_size[0]).astype(int)
rows = (pts[:, 1] / m.cell_size[1]).astype(int)
print(f"\n20000 samples from u_15: obstacle hits = {int(m.occupancy[rows, cols].sum())}")
