#!/usr/bin/env python3
"""Compare two benchmark reports written by perfbench/run.py.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both reports with NEW / BASE. Reports taken on
different hosts or builds (nproc, workers, ISA, compiler or build type)
are not comparable: the differing fingerprint fields are flagged, and the
exit code is 3.
"""

import json
import sys


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        base = json.load(f)
    with open(sys.argv[2]) as f:
        new = json.load(f)

    code = 0
    fb, fn = base["fingerprint"], new["fingerprint"]
    for key in sorted(set(fb) | set(fn)):
        if fb.get(key) != fn.get(key):
            print(f"FINGERPRINT DIFFERS: {key}: {fb.get(key)} -> "
                  f"{fn.get(key)}")
            code = 3
    for key in ("workload", "trace"):
        if base.get(key) != new.get(key):
            print(f"REPORTS DIFFER IN {key}: {base.get(key)} -> "
                  f"{new.get(key)}")
            code = 3

    for name, m in new["metrics"].items():
        b = base["metrics"].get(name)
        if b is None:
            print(f"  {name:<34} {'-':>14} {m['value']:>14.6g} {m['unit']}")
            continue
        ratio = m["value"] / b["value"] if b["value"] else float("nan")
        print(f"  {name:<34} {b['value']:>14.6g} {m['value']:>14.6g} "
              f"{m['unit']:<6} x{ratio:.4f}")
    if code:
        print("not comparable: the fingerprints differ")
    return code


if __name__ == "__main__":
    sys.exit(main())
