"""Keep one CPU busy at the lowest priority, so it never goes idle.

    python3 perfbench/keep_awake.py CPU PARENT_PID

On a virtual machine an idle CPU halts, and the hypervisor has to
schedule it again before it can run the thread a packet or timer wakes.
How long that takes depends on the host's load, not on the program.
This loop runs under ``SCHED_IDLE``: it only gets time no other thread
wants, and the kernel preempts it as soon as one wakes, so the wake-up
stays inside the guest.  It exits as soon as PARENT_PID is no longer
its parent, and without spinning when ``SCHED_IDLE`` is unavailable.
"""

from __future__ import annotations

import os
import sys


def main() -> int:
    cpu, parent = int(sys.argv[1]), int(sys.argv[2])
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        return 0  # a busy loop at normal priority would take time
    while os.getppid() == parent:
        for _ in range(10000):
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
