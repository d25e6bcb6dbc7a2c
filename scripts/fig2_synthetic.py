#!/usr/bin/env python3
"""Full-protocol synthetic run: all seven dueling algorithms on the default
universe (5000 arms, 500 key-terms, d=10), T=5000, b(t)=10*floor(t/50).

Heavy: hours of CPU at the published scale.  Trim --users / --t for a desk
run.  No automatic check covers a scaled-down version yet: the acceptance
gate (tests/test_acceptance.py) is the "Headline-claim audit" item of
ROADMAP.md and not written.
"""

import os
import sys

from conduel.cli import main

OUT = os.environ.get("CONDUEL_OUT", "out/fig2_synthetic")

args = [
    "run",
    "--algorithms",
    "conduel,conduel-random,conduel-maxinp,maxinp,random-opt,rconucb-posneg,rconucb-diff",
    "--t", "5000",
    "--seeds", "0:10",
    "--users", "20",
    "--schedule", "linear:10",
    "--pool-size", "50",
    "--out", OUT,
]

if __name__ == "__main__":
    code = main(args + sys.argv[1:])
    if code == 0:
        csvs = [
            os.path.join(OUT, f"{a}_agg.csv")
            for a in (
                "conduel", "conduel-random", "conduel-maxinp", "maxinp",
                "random-opt", "rconucb-posneg", "rconucb-diff",
            )
        ]
        code = main(["plot", *csvs, "--out-file", os.path.join(OUT, "fig2_synthetic.svg")])
    sys.exit(code)
