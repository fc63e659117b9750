"""How fast this machine runs Python at the moment, and timings scaled to it.

The machine is shared: its speed drops by up to half, in bursts of seconds
to minutes that have nothing to do with the code under test.  A benchmark
that reported raw seconds would measure the neighbours.  So the benchmark
times this fixed kernel (dict updates on tuple keys, then a sort: the kind
of work synlab does) between jobs, and reports each job's time scaled to
the speed at which the kernel takes REF_S:

    scaled = job seconds * REF_S / (mean kernel seconds just before and after the job)

On a quiet machine that is about the raw time.  The raw times are printed
beside the scaled ones.  This module imports nothing but `time`, so a
set-up probe can load it without warming the imports synlab needs.
"""

import time

REF_S = 0.020
KERNEL_SIZE = 10_000


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    table = {}
    for i in range(KERNEL_SIZE):
        key = (i % 97, i // 97)
        table[key] = table.get(key, 0) + i % 7
    sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return time.perf_counter() - t0


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    return seconds * REF_S / ((kernel_before + kernel_after) / 2)
