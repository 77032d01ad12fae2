"""Time start-up in a fresh interpreter: import geomindep, run one tiny job.

Usage: python3 probe.py <src dir> <geomindep argv...>; prints the seconds
taken, a host sample of the calibration kernel taken afterwards, and the
job's exit code.  The kernel is imported only after the timed region, so
the modules it shares with geomindep are charged to start-up.
"""

import contextlib
import io
import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import geomindep.cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    rc = geomindep.cli.main(sys.argv[2:])
seconds = time.perf_counter() - t0

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import calibration  # noqa: E402

kernel_s = calibration.host_sample()[1]
print(seconds, kernel_s, rc)
