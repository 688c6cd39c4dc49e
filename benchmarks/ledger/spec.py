"""Where the checkout is, what ``BENCHMARK.json`` declares, what host this is."""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
from pathlib import Path
from typing import Dict

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
#: Everything a run writes (traces, daemon state, checkpoints, child records).
SCRATCH = ROOT / ".ledger_tmp"


def scratch_dir(name: str) -> Path:
    path = SCRATCH / name
    path.mkdir(parents=True)
    return path


def remove_scratch(path: Path) -> None:
    """Remove ``path`` and, once no other run uses it, the scratch root."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass


def load_spec() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def host_info() -> Dict[str, object]:
    commit = ""
    if (ROOT / ".git").exists():  # the driver's checkout is not a repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }
