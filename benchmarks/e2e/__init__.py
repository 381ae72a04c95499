"""The repo's end-to-end benchmark (see README.md in this directory).

Four round-replicated workloads over the public library surface, seven
end-to-end metrics, and per-layer attribution from spans recorded around
the calls into each layer.  ``BENCHMARK.json`` at the repo root names
this package; nothing outside this directory belongs to it.
"""

import sys
from pathlib import Path

#: The checkout this package sits in (``benchmarks/e2e`` -> root).
ROOT = Path(__file__).resolve().parents[2]

# The benchmark runs from a bare checkout with no PYTHONPATH; the library
# under test is the checkout's own ``src`` and nothing else.
if not (ROOT / "src" / "repro").is_dir():
    raise ImportError(f"no library to measure: {ROOT / 'src' / 'repro'} is missing")
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
