"""Run one qspectra CLI request with the call counters installed.

Usage: python3 perfbench/clicount.py <qspectra arguments...>

Exits with the CLI's own code; the counts go to standard error as its last
line, after anything the CLI wrote there.
"""

import json
import sys

from layers import Counters

counters = Counters()
counters.install()
from qspectra import cli  # noqa: E402

try:
    code = cli.main(sys.argv[1:])
finally:
    sys.stdout.flush()
    print(json.dumps(counters.as_dict()), file=sys.stderr)
sys.exit(code)
