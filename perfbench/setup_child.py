"""One set-up of a workload in a fresh interpreter.

    python perfbench/setup_child.py WORKLOAD SEED WORKDIR

Imports what the workload's operations import (`tmlab.cli`, or the
library modules for `scan`) and writes the workload's input files into
WORKDIR.  The caller times the whole process: that is `setup_s`.
"""

import json
import sys
from pathlib import Path


def main() -> int:
    workload, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    if workload == "scan":
        import tmlab.groundstate  # noqa: F401
        import tmlab.probe  # noqa: F401
    else:
        import tmlab.cli  # noqa: F401
    import numpy as np
    from tmlab.potentials import GammaPotential
    from tmlab.radial import RadialFunction, RadialGrid
    from tmlab.sampling import bump_profile, nonneg_profile

    from workloads import scan_plan

    grid = RadialGrid.default()
    rng = np.random.default_rng(seed)
    if workload == "quick":
        bump_profile(rng, grid).to_csv(work / "profile.csv")
    elif workload == "heavy":
        nonneg_profile(rng, grid).to_csv(work / "nonneg.csv")
    else:
        # gamma:0.5 on the grid nodes; V is infinite at r = 1, so the
        # last finite sample is repeated there.
        vals = GammaPotential(0.5)(grid.nodes[:-1])
        table = RadialFunction(grid, np.append(vals, vals[-1]),
                               dirichlet=False)
        table.to_csv(work / "tabulated_gamma05.csv")
        (work / "plan.json").write_text(json.dumps(scan_plan(seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
