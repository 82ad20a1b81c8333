"""Set-up probe, run in a fresh interpreter by run.py: import the CLI module,
load the robot files named on the command line, print the two phase times
as JSON.  The caller times the whole process from the outside."""
import json
import sys
import time

t0 = time.perf_counter()
import planar_rpr.cli  # noqa: E402,F401

t1 = time.perf_counter()
from planar_rpr.robotfile import load_robot  # noqa: E402

for path in sys.argv[1:]:
    load_robot(path)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
