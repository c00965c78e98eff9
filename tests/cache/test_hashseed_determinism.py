"""Hash-seed determinism of the multi-configuration cache engine.

``simulate_multi_cache`` used to build its per-line-size flattening with
``for shift in set(shifts)``, whose iteration order depends on
``PYTHONHASHSEED``.  The plan construction must be first-seen ordered
(``dict.fromkeys``) so two runs of the same simulation — in different
processes, under randomized hashing — produce bit-identical results in
identical internal order.
"""

import subprocess
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[2] / "src")

# Mixed line sizes on purpose: 16- and 32-byte lines give two distinct
# shifts, interleaved, so the de-duplicated iteration order is exercised.
_SCRIPT = """
from repro.cache import CacheConfig, simulate_multi_cache
from repro.ease.trace import RleTraceSink

sink = RleTraceSink()
for block_id in ([0, 1, 2, 1] * 50 + [3, 4]) * 3:
    sink.emit(block_id)
trace = sink.finish()
fetches = {i: [i * 64 + j * 4 for j in range(5)] for i in range(5)}
configs = [
    CacheConfig(size=256, line_size=16),
    CacheConfig(size=256, line_size=32),
    CacheConfig(size=1024, line_size=16),
    CacheConfig(size=1024, line_size=32),
]
for ctx in (False, True):
    for r in simulate_multi_cache(trace, fetches, configs, context_switches=ctx):
        print(r.accesses, r.misses, r.fetch_cost, r.flushes)
"""


def _run(hashseed: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": _SRC, "PYTHONHASHSEED": hashseed},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_results_identical_across_hash_seeds():
    baseline = _run("0")
    assert baseline.strip()
    for seed in ("1", "42", "random"):
        assert _run(seed) == baseline, f"PYTHONHASHSEED={seed} diverged"
