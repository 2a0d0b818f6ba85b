"""Set-up probe: what a fresh `steane-mc` process does before its first trial.

Imports the package (the CLI pulls in every layer), builds the code tables
and the recovery network, and prints the schedule fingerprint so the caller
can check the build.  Usage: python3 setup_probe.py <path to src/>
"""

import sys

sys.path.insert(0, sys.argv[1])

from steane_mc import cli, codebook  # noqa: E402,F401
from steane_mc.circuit import RecoverySchedule, build_recovery  # noqa: E402

codebook.build_tables()
print(build_recovery(RecoverySchedule()).fingerprint())
