"""Run ``python -m MODULE ARGS...`` in this process, then record its peak RSS.

    python3 bench/peak_rss.py OUT_FILE MODULE [ARGS...]

Writes the process's own ``VmHWM`` (kB) to OUT_FILE at exit.  The
``ru_maxrss`` that ``wait4`` reports would also count the parent's memory,
which a child shares between fork and exec; ``VmHWM`` starts afresh at exec.
"""

import atexit
import runpy
import sys


def write_peak(path: str) -> None:
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    with open(path, "w") as fh:
        fh.write(f"{kb}\n")


if __name__ == "__main__":
    out, module, *args = sys.argv[1:]
    atexit.register(write_peak, out)
    sys.argv = [module, *args]
    runpy.run_module(module, run_name="__main__", alter_sys=True)
