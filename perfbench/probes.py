"""Small measurements that each need a fresh process of their own.

    python3 perfbench/probes.py import     seconds to import sparseq
    python3 perfbench/probes.py floor N    one in-place pass over 2^N complex128

Each prints one JSON object.
"""
from __future__ import annotations

import json
import statistics
import sys
import time


def import_time() -> dict:
    t0 = time.perf_counter()
    import sparseq  # noqa: F401

    return {"import_s": time.perf_counter() - t0, "file": sparseq.__file__}


def floor_pass(n: int, min_seconds: float = 0.3, min_passes: int = 5) -> dict:
    """Median time of one in-place scale pass over 2^n amplitudes: each
    amplitude is read and written once, 32 B of memory traffic."""
    import numpy as np

    a = np.ones(1 << n, dtype=complex)
    phase = np.exp(0.1j)
    times = []
    start = time.perf_counter()
    while len(times) < min_passes or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        np.multiply(a, phase, out=a)
        times.append(time.perf_counter() - t0)
    floor_s = statistics.median(times)
    return {"n": n, "bytes": a.nbytes, "floor_s": floor_s, "gbps": 32 * a.size / floor_s / 1e9,
            "passes": len(times)}


if __name__ == "__main__":
    if sys.argv[1:2] == ["import"]:
        print(json.dumps(import_time()))
    elif sys.argv[1:2] == ["floor"] and len(sys.argv) == 3:
        print(json.dumps(floor_pass(int(sys.argv[2]))))
    else:
        sys.exit(f"usage: {sys.argv[0]} import | floor N")
