"""The run configs shipped in ``configs/``.

Running a shipped config may write its ``outputs`` beside it, and a report
is a JSON file too; :func:`run_configs` leaves those files out, so tests
that loop over the configs see the same set before and after a run.
"""

import json
from pathlib import Path

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_configs():
    """Sorted paths of ``configs/*.json``, without the files that the
    configs' ``outputs`` blocks name."""
    paths = sorted(CONFIGS.glob("*.json"))
    outputs = set()
    for path in paths:
        data = json.loads(path.read_text())
        if isinstance(data, dict) and isinstance(data.get("outputs"), dict):
            outputs.update(CONFIGS / name for name in data["outputs"].values()
                           if isinstance(name, str))
    return [path for path in paths if path not in outputs]
