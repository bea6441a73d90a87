#!/usr/bin/env python3
"""Peak-RSS gate: run each experiment alone and compare its peak resident
set with a tracked baseline.

Every experiment id runs as `bench/main.exe --quick --jobs 1 <id>` in a
child process of its own, inside a temporary directory (so the BENCH_*.json
files experiments write stay out of the tree). The child's peak RSS is its
`ru_maxrss` as reported by wait4. A child that exits non-zero fails the run.

Usage, from the repository root:

  dune build bench/main.exe bin/cornflakes_cli.exe
  python3 bench/rss.py --baseline bench/rss_baseline.json   # the gate
  python3 bench/rss.py --record bench/rss_baseline.json     # re-record
  python3 bench/rss.py fig7 tab3                            # a subset

With --baseline, an experiment fails when its peak exceeds the recorded one
by more than 25%, and so does an id that the baseline does not list. Exit status: 0 clean, 1 on any failure.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

DEFAULT_EXE = os.path.join("_build", "default", "bench", "main.exe")
CLI = os.path.join("_build", "default", "bin", "cornflakes_cli.exe")
TOLERANCE = 0.25


def list_ids():
    """Every registry id, from `cornflakes_cli experiments --list`."""
    out = subprocess.run(
        [CLI, "experiments", "--list"], check=True, capture_output=True, text=True
    )
    return [line.split()[0] for line in out.stdout.splitlines() if line.strip()]


def run_one(exe, exp_id):
    """Run one experiment; return (exit status, peak RSS in MB, wall s)."""
    with tempfile.TemporaryDirectory(prefix="rss-") as cwd:
        t0 = time.monotonic()
        child = subprocess.Popen(
            [exe, "--quick", "--jobs", "1", exp_id],
            cwd=cwd,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        # Drain stderr before reaping, so a chatty child cannot block.
        err = child.stderr.read()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        wall = time.monotonic() - t0
    if child.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
    # Linux reports ru_maxrss in KiB.
    return child.returncode, usage.ru_maxrss / 1024.0, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    ap.add_argument("--exe", default=DEFAULT_EXE, help="bench/main.exe to run")
    ap.add_argument("--baseline", help="compare with this baseline file")
    ap.add_argument("--record", help="write the measured peaks to this file")
    args = ap.parse_args()

    exe = os.path.abspath(args.exe)
    ids = args.ids or list_ids()
    base = {}
    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)["peak_rss_mb"]

    failed = []
    peaks = {}
    print(f"{'experiment':<12} {'peak MB':>9} {'base MB':>9} {'ratio':>7} {'wall s':>7}")
    for exp_id in ids:
        code, mb, wall = run_one(exe, exp_id)
        peaks[exp_id] = round(mb, 1)
        verdict = ""
        if code != 0:
            verdict = f"FAIL: exit {code}"
        elif args.baseline:
            if exp_id not in base:
                verdict = "FAIL: not in baseline"
            elif mb > base[exp_id] * (1 + TOLERANCE):
                verdict = f"FAIL: above +{TOLERANCE:.0%}"
        ref = base.get(exp_id)
        ratio = f"{mb / ref:7.2f}" if ref else f"{'-':>7}"
        ref_s = f"{ref:9.1f}" if ref else f"{'-':>9}"
        print(
            f"{exp_id:<12} {mb:9.1f} {ref_s} {ratio} {wall:7.1f}  {verdict}",
            flush=True,
        )
        if verdict:
            failed.append(exp_id)

    if args.record:
        with open(args.record, "w") as f:
            json.dump(
                {
                    "command": "bench/main.exe --quick --jobs 1 <id>",
                    "unit": "MB (ru_maxrss of the child)",
                    "peak_rss_mb": peaks,
                },
                f,
                indent=2,
            )
            f.write("\n")
    if failed:
        print(f"peak RSS gate failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
