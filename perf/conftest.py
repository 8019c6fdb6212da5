"""``pytest perf/`` imports the benchmark's modules (the repo's pytest
options include ``--doctest-modules``); they import ``repro`` from the
source tree, like ``run.py`` does."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
