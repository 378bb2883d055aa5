"""Path set-up for the perf benchmark's own tests.

Run with ``python -m pytest benchmarks/perf/tests -q`` from the repo
root; these are not part of the tier-1 suite (``testpaths = tests``).
"""

import os
import sys

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(PERF))

for path in (os.path.join(ROOT, "src"), PERF):
    if path not in sys.path:
        sys.path.insert(0, path)
