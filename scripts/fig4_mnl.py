#!/usr/bin/env python3
"""Choice-model comparison: the conversational assortment policy and its
variants against the no-conversation baseline, T=2000, q=4, b(t)=5*floor(t/50)."""

import os
import sys

from conduel.cli import main

OUT = os.environ.get("CONDUEL_OUT", "out/fig4_mnl")
ALGORITHMS = ("conmnl", "conmnl-ucb", "conmnl-random", "ucb-mnl")

args = [
    "run",
    "--algorithms", ",".join(ALGORITHMS),
    "--t", "2000",
    "--seeds", "0:10",
    "--users", "20",
    "--schedule", "linear:5",
    "--pool-size", "50",
    "--q", "4",
    "--t0", "50",
    "--out", OUT,
]

if __name__ == "__main__":
    code = main(args + sys.argv[1:])
    if code == 0:
        csvs = [os.path.join(OUT, f"{a}_agg.csv") for a in ALGORITHMS]
        code = main(["plot", *csvs, "--out-file", os.path.join(OUT, "fig4_mnl.svg")])
    sys.exit(code)
