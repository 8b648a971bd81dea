"""Regenerate the golden-regression snapshots under ``tests/golden/``.

Each snapshot stores one scenario's *smoke-size* parameters together with the
canonicalised result of running it, so ``tests/test_golden.py`` can replay
the exact stored configuration later (immune to environment overrides like
``REPRO_E11_TRIALS`` changing the registry's smoke defaults at import time)
and compare field by field.

Regenerate intentionally -- after a change that is *supposed* to alter
experiment output -- with::

    make refresh-golden

and commit the resulting JSON diffs alongside the change that caused them.
Each snapshot records the Python, numpy and scipy versions it was
generated with under ``environment`` (the replay ignores that field).
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.campaign.cache import canonicalize          # noqa: E402
from repro.campaign.registry import iter_scenarios     # noqa: E402

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def main() -> int:
    import numpy
    import scipy

    environment = {"python": platform.python_version(),
                   "numpy": numpy.__version__, "scipy": scipy.__version__}
    GOLDEN_DIR.mkdir(exist_ok=True)
    for spec in iter_scenarios():
        params = spec.params(smoke=True)
        result = spec.runner(**params)
        payload = {
            "scenario": spec.name,
            "experiment": spec.experiment,
            "environment": environment,
            "params": canonicalize(params),
            "result": canonicalize(result),
        }
        path = GOLDEN_DIR / f"{spec.name}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path.relative_to(Path.cwd())}"
              if path.is_relative_to(Path.cwd()) else f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
