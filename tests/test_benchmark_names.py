"""The benchmark in ``regbench/`` times and observes the library by replacing
names on their owners (``owner.__dict__``), so a renamed or removed library
name breaks it without failing any other test."""

import os
import sys

REGBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "regbench")


def test_benchmark_patch_targets_exist():
    sys.path.insert(0, REGBENCH)
    try:
        import layers
        import workloads
    finally:
        sys.path.remove(REGBENCH)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name, _, _ in layers.trace_targets()
        if name not in vars(owner)
    ]
    assert missing == []
    # looks up every name it patches in its owner's __dict__, and restores
    # them on exit
    with workloads.Observer().observing():
        pass
