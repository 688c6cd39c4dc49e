"""Entry point of the benchmark driver (``command`` in BENCHMARK.json).

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload in this process against the sources of this checkout.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        sys.exit(f"{ROOT} holds no src/repro and BENCHMARK.json: nothing to benchmark")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.ledger.harness import main

    sys.exit(main())
