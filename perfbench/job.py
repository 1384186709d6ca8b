"""Run one ``precom`` CLI job in this fresh interpreter and record its timings.

Usage: python3 job.py SRC OUT TRACE -- CLI-ARGS...

SRC is the ``src`` directory to import ``precom`` from and OUT the path
prefix for the records this job writes.  TRACE is 1 to wrap every layer
in spans (written to OUT.spans), or 0 to wrap only ``rewrite.verify_gsb``,
whose ambiguity count the JSON report of ``verify`` leaves out.

OUT.json gets the monotonic times at which the interpreter started and
``import precom`` finished, the time spent inside ``precom.cli.main``, its
return code, the ambiguity count and the process's peak resident size.
The process exits with the CLI's return code; the CLI's own report goes
to stdout unchanged.
"""

import time

started = time.monotonic()  # before any other import: the bare interpreter start

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

src, out, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
sys.path.insert(0, src)

import precom  # noqa: E402  (the import is what setup_s measures)

import_done = time.monotonic()
if not os.path.abspath(precom.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit("precom imported from %s, not from %s" % (precom.__file__, src))

import spans  # noqa: E402  (this file's directory is on sys.path)

from precom import cli, magma  # noqa: E402

tracer = spans.Tracer()
spans.install(tracer, only=None if trace else ("rewrite.verify_gsb",))
words_before = len(magma._NODES)

code = None
t0 = time.perf_counter()
try:
    code = cli.main(sys.argv[5:])
finally:
    verdict_s = time.perf_counter() - t0
    sys.stdout.flush()
    tracer.count("magma.node.new_words", len(magma._NODES) - words_before)
    if trace:
        tracer.dump(out + ".spans")
    with open("/proc/self/status") as fh:
        peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    with open(out + ".json", "w") as fh:
        json.dump({"started": started, "import_done": import_done,
                   "verdict_s": verdict_s, "code": code, "peak_kb": peak_kb,
                   "ambiguities": tracer.counters.get("rewrite.ambiguities")}, fh)
sys.exit(code)
