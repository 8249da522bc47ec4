"""``python -m repro`` — the command-line interface.

A library error (:class:`~repro.errors.ReproError`, e.g. a
misconfigured run) prints one ``repro: error: ...`` line and exits 2,
argparse's usage-error status; 1 stays a failed verdict.
"""

import sys

from repro.cli import main
from repro.errors import ReproError

try:
    sys.exit(main())
except ReproError as error:
    print(f"repro: error: {error}", file=sys.stderr)
    sys.exit(2)
