"""One benchmark set-up in a fresh interpreter; prints its seconds.

    python3 perfbench/setup_child.py WORKLOAD SEED OUTDIR

Times, from the first statement of this script, the import of every
qbern module from ``src/`` and the generation of the workload's inputs
from the seed.  Nothing is imported before the clock starts except what
the interpreter itself loads, so a module-level import that qbern adds is
billed here; the interpreter's own start-up is not.  ``run.py`` starts
several of these one after another and reports their median as
``setup_s``.
"""

import time

t0 = time.perf_counter()

import importlib  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

qbern = importlib.import_module("qbern")
if not os.path.abspath(qbern.__file__).startswith(SRC + os.sep):
    sys.exit(f"qbern imported from {qbern.__file__}, not from {SRC}")
importlib.import_module("qbern.cli")  # the package imports the other five layers

from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

workload, seed, outdir = sys.argv[1:]
WORKLOADS[workload](int(seed), Path(outdir)).inputs()
print(time.perf_counter() - t0)
