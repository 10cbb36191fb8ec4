#!/usr/bin/env python3
"""Screen every pool slot of the benchmark's workloads against the gates.

    python3 perfbench/screen.py                       # every workload
    python3 perfbench/screen.py --workload mot-batch  # one, merged into the file

Runs the instance of each slot once, untimed, through the workload's call and
gates, and writes screened.json next to this file: the commit screened, the
number of slots per workload, and the slots that raised or missed a gate.
Decks skip those slots and the traced run probes them (workloads.py).  Run it
again whenever the pools or the strata change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import run


def screen(name: str, workdir) -> tuple:
    """(slots screened, {label: failing slots}) of one workload."""
    import workloads

    workload = workloads.WORKLOADS[name]
    strata = workload.strata()
    failing, count = {}, 0
    for label, (size, _) in strata.items():
        for slot in range(size):
            inst = workloads.slot_instance(name, strata, label, slot, slot)
            workload.prepare([inst], str(workdir))
            missed = run.timed_call(workload, inst)[2]
            count += 1
            if missed:
                failing.setdefault(label, []).append(slot)
                print(f"{name}: {label} slot {slot}: {', '.join(missed)}", flush=True)
    return count, failing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args(argv)
    run.import_package()
    import envinfo
    import workloads

    slots, screened = {}, {}
    workdir = run.ROOT / ".perfbench_work" / f"screen-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in args.workload or run.WORKLOADS:
            start = time.perf_counter()
            slots[name], screened[name] = screen(name, workdir)
            print(f"{name}: {sum(map(len, screened[name].values()))} of {slots[name]} slots "
                  f"failing ({time.perf_counter() - start:.0f} s)", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # read only now, so that workloads screened meanwhile by another process stay
    data = {"slots": {}, "screened": {}}
    if workloads.SCREENED.is_file():
        data = json.loads(workloads.SCREENED.read_text(encoding="utf-8"))
    data["commit"] = envinfo.environment(run.ROOT, None)["commit"]
    data["slots"].update(slots)
    data["screened"].update(screened)
    workloads.SCREENED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
