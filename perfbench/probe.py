"""Run one cold CLI call in a fresh interpreter, for the ``setup_s`` metric.

    python3 perfbench/probe.py '["verify", "--d1", "3", "--d2", "5"]'

Prints one JSON line: the monotonic clock when the call returned, its exit
code and its stdout.  The parent reads the clock before it starts this
process, so the difference covers interpreter start-up, the imports of
numpy and wmub, and the call itself.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wmub.cli import main  # noqa: E402

buffer = io.StringIO()
with contextlib.redirect_stdout(buffer):
    code = main(json.loads(sys.argv[1]))
done = time.perf_counter()
print(json.dumps({"done": done, "code": code, "stdout": buffer.getvalue()}))
