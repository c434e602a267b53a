#!/usr/bin/env python3
"""Golden digests of the deterministic binaries' output.

Every paper table, figure, ablation, model and example in this repository
runs on simulated time, so a refactor that claims to change no behaviour
must leave their output byte-identical. This tool runs each of them in a
fixed mode, normalizes the output and records one SHA-256 per binary in
GOLDEN.json at the repository root.

    python3 tools/golden.py --check            # compare with GOLDEN.json
    python3 tools/golden.py --update           # rewrite GOLDEN.json
    python3 tools/golden.py --show table3      # print one normalized output

`--build DIR` selects the CMake build tree (default: build). `--check`
exits 1 and names every binary whose digest moved; a change that moves
sim output regenerates the file with `--update`, and the diff of
GOLDEN.json names exactly which outputs changed.

Normalization, applied to stdout and stderr alike:
  - log lines lose their `file.cc:123] ` source prefix, so moving code
    between files or lines does not move a digest;
  - host-timed fields (wall-clock rates, CPU seconds) are dropped; see
    HOST_TIMED below. The binaries listed here print none today.
Both streams are hashed, stdout first, so a log message that changes
text or order moves the digest too.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(REPO, "GOLDEN.json")

# name -> argv relative to the build tree. Every entry must print the same
# bytes on every run of the same source.
BINARIES = {
    "table1_read_latency": ["bench/table1_read_latency"],
    "table2_drive_read": ["bench/table2_drive_read"],
    "table3_mechanical": ["bench/table3_mechanical"],
    "fig6_stack_throughput": ["bench/fig6_stack_throughput"],
    "fig7_op_breakdown": ["bench/fig7_op_breakdown"],
    "fig8_burn_25gb_single": ["bench/fig8_burn_25gb_single"],
    "fig9_burn_25gb_array": ["bench/fig9_burn_25gb_array"],
    "fig10_burn_100gb": ["bench/fig10_burn_100gb"],
    "ablation_fuse_bigwrites": ["bench/ablation_fuse_bigwrites"],
    "ablation_io_streams": ["bench/ablation_io_streams"],
    "ablation_mech_parallel": ["bench/ablation_mech_parallel"],
    "ablation_prefetch": ["bench/ablation_prefetch"],
    "tco_model": ["bench/tco_model"],
    "power_model": ["bench/power_model"],
    "redundancy_model": ["bench/redundancy_model"],
    "pb_scale_pipeline": ["bench/pb_scale_pipeline"],
    "mv_recovery": ["bench/mv_recovery"],
    "quickstart": ["examples/quickstart"],
    "disaster_recovery": ["examples/disaster_recovery"],
    "archival_datacenter": ["examples/archival_datacenter"],
    "analytics_inline": ["examples/analytics_inline"],
    "s3_gateway": ["examples/s3_gateway"],
    "chaos_harness": ["bench/chaos_harness", "--seeds=1,2,3"],
    "chaos_harness_replay": ["bench/chaos_harness", "--replay-check",
                             "--seeds=1,2,3"],
    "fetch_sched_replay": ["bench/fetch_sched", "--replay-check"],
}

# A log line's source location: "W [rack0] olfs.cc:547] ..." keeps the
# level, the prefix and the message.
LOG_SOURCE = re.compile(r"\b[\w.+-]+\.(?:cc|cpp|h):\d+\] ")

# name -> regexes whose matches are replaced by "<host>": fields measured
# on the host clock, which vary run to run. Empty today; a binary that
# gains such a field adds its pattern here rather than leaving the list.
HOST_TIMED = {}


def normalize(name, text):
    text = LOG_SOURCE.sub("", text)
    for pattern in HOST_TIMED.get(name, []):
        text = re.sub(pattern, "<host>", text)
    return text


def run(build, name):
    argv = BINARIES[name]
    exe = os.path.join(build, argv[0])
    if not os.path.exists(exe):
        sys.exit(f"{name}: {exe} is not built")
    proc = subprocess.run([exe] + argv[1:], cwd=REPO, capture_output=True,
                          text=True, errors="replace")
    if proc.returncode != 0:
        sys.exit(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return ("== stdout\n" + normalize(name, proc.stdout) +
            "== stderr\n" + normalize(name, proc.stderr))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--update", action="store_true")
    mode.add_argument("--show", metavar="NAME")
    parser.add_argument("--build", default="build")
    args = parser.parse_args()
    build = os.path.join(REPO, args.build)

    if args.show:
        if args.show not in BINARIES:
            sys.exit(f"unknown binary {args.show}; one of: "
                     + ", ".join(BINARIES))
        sys.stdout.write(run(build, args.show))
        return 0

    fresh = {name: digest(run(build, name)) for name in BINARIES}
    if args.update:
        with open(GOLDEN, "w") as f:
            json.dump(fresh, f, indent=2)
            f.write("\n")
        print(f"wrote {len(fresh)} digests to GOLDEN.json")
        return 0

    with open(GOLDEN) as f:
        committed = json.load(f)
    moved = sorted(n for n in fresh if committed.get(n) != fresh[n])
    stale = sorted(n for n in committed if n not in fresh)
    for n in moved:
        print(f"MOVED  {n}  (see: tools/golden.py --show {n})")
    for n in stale:
        print(f"STALE  {n}  (in GOLDEN.json, no longer run)")
    if moved or stale:
        return 1
    print(f"all {len(fresh)} golden digests match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
