"""Make the benchmark's modules and the program importable.

Run with ``python -m pytest perfledger/tests -q`` from the repo root;
tier-1 (``testpaths = ["tests"]``) does not collect this directory.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PERFLEDGER = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFLEDGER)

for path in (os.path.join(ROOT, "src"), PERFLEDGER):
    if path not in sys.path:
        sys.path.insert(0, path)
