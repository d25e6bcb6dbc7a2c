#!/usr/bin/env python3
"""Conversation-frequency and dimension ablations on synthetic data.

Each point is one ``conduel run`` that plays ``conduel`` and ``maxinp``, its
no-conversation reference, under common random numbers, into its own
directory under ``CONDUEL_OUT`` (default ``out/fig3``):

- frequency: b(t) = n*floor(t/50) and n*floor(log t) for n in {1, 5, 10, 20},
  into ``frequency/freq_linear_<n>`` and ``frequency/freq_log_<n>``;
- dimension: d in {20, 30, 40, 50} with b(t) = 10*floor(t/50), into
  ``dimension/dim_<d>``.

Arguments are passed on to every run, after and so over the settings below:

    python3 scripts/fig3_ablations.py --t 50 --seeds 0:1 --users 1 --workers 2
"""

import os
import sys

from conduel.cli import main

OUT = os.environ.get("CONDUEL_OUT", "out/fig3")

common = [
    "--algorithms", "conduel,maxinp",
    "--t", "5000",
    "--seeds", "0:10",
    "--users", "20",
    "--pool-size", "50",
]

# (output directory, the point's settings)
points = [
    (os.path.join("frequency", f"freq_{family}_{n}"), ["--schedule", f"{family}:{n}"])
    for family in ("linear", "log")
    for n in (1, 5, 10, 20)
] + [
    (os.path.join("dimension", f"dim_{d}"), ["--schedule", "linear:10", "--d", str(d)])
    for d in (20, 30, 40, 50)
]

if __name__ == "__main__":
    for out_dir, setting in points:
        code = main(["run", *common, *setting, "--out", os.path.join(OUT, out_dir), *sys.argv[1:]])
        if code != 0:
            sys.exit(code)
