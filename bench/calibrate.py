"""A fixed computation that times the host, apart from hybridspec.

    python3 bench/calibrate.py

The host's speed changes by up to a factor of two over minutes, as other
work on it comes and goes, and a round of a workload slows with it.  This
computation uses numpy alone, in the ways the workloads use it: a Python
loop of elementwise complex arithmetic on 36,000-element arrays (as
``mhom`` does), dense complex solves of 1024 x 1024 systems (as
``master_eq`` does), pages faulted in fresh from the kernel (as a fresh
process's large temporaries are) and plain Python arithmetic.  The
program never runs in it, so its time tracks the host and nothing else.
run.py times it in the set-up processes before and after every round.
"""

import mmap
import time

import numpy as np

PACKETS = 36000
SWEEPS = 600
SOLVE_N = 1024
SOLVES = 3
FAULT_BLOCK = 16 << 20
FAULT_BLOCKS = 24
LOOP = 2000000


def calibrate():
    """Seconds each part of the fixed computation took."""
    rng = np.random.default_rng(0)
    z = rng.normal(size=PACKETS) + 1j * rng.normal(size=PACKETS)
    gamma = 0.1 + rng.random(PACKETS)
    a = (rng.normal(size=(SOLVE_N, SOLVE_N))
         + 1j * rng.normal(size=(SOLVE_N, SOLVE_N))) / SOLVE_N ** 0.5
    a += 4.0 * np.eye(SOLVE_N)
    b = np.ones(SOLVE_N, dtype=complex)
    parts = {}

    t0 = time.perf_counter()
    for k in range(SWEEPS):
        r = 1.0 / (k * 1e-3 - z - 1j * gamma)
        np.sum(r.real * r.real + r.imag * r.imag)
    parts["elementwise"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for k in range(SOLVES):
        np.linalg.solve(a + k * np.eye(SOLVE_N), b)
    parts["solve"] = time.perf_counter() - t0

    # fresh pages straight from the kernel, past the allocator
    t0 = time.perf_counter()
    for _ in range(FAULT_BLOCKS):
        with mmap.mmap(-1, FAULT_BLOCK) as block:
            pages = np.frombuffer(block, dtype=np.uint8)
            pages[::mmap.PAGESIZE] = 1
            del pages  # the mapping cannot close while a view holds it
    parts["faults"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    acc = 0
    for k in range(LOOP):
        acc = (acc * 31 + k) % 1000003
    parts["python"] = time.perf_counter() - t0
    return parts


if __name__ == "__main__":
    print(calibrate())
