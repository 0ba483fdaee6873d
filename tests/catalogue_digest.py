"""One digest of the whole verification catalogue over a range of seeds.

    python3 tests/catalogue_digest.py [START STOP] [--expect SHA]

Runs every suite of `qfa.suites.SUITES` at each seed in START..STOP-1
(default 0..9), in process and single-threaded, and prints the number of
rows, every row that did not PASS, and a sha256 of each row's suite, seed,
id, status, measured value, bound, witness and note, taken from the JSON
report that `qfa verify` writes (run times are left out).  It also prints one
sha256 per suite over that suite's rows, so that a mismatch names its suite;
the total digest covers every row in the order run.  Two checkouts that print
the same digest gave the same report rows.  The library is imported from the
`src/` directory next to this file.

The exit status is 1 when a row did not PASS, or when --expect is given and
the total digest differs from SHA; it is 0 otherwise.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qfa import SUITES, emit_report, run_suite  # noqa: E402

FIELDS = ("id", "status", "measured", "bound", "witness", "note")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("start", type=int, nargs="?", default=0)
    parser.add_argument("stop", type=int, nargs="?", default=10)
    parser.add_argument("--expect", metavar="SHA", help="the total sha256 the run must print")
    args = parser.parse_args(argv)
    digest, rows, failed = hashlib.sha256(), 0, []
    per_suite = {suite: hashlib.sha256() for suite in SUITES}
    for seed in range(args.start, args.stop):
        for suite in SUITES:
            report = json.loads(emit_report(run_suite(suite, {"seed": seed})))
            for check in report["checks"]:
                row = {"suite": suite, "seed": seed, **{key: check[key] for key in FIELDS}}
                line = json.dumps(row, sort_keys=True).encode() + b"\n"
                digest.update(line)
                per_suite[suite].update(line)
                rows += 1
                if check["status"] != "PASS":
                    failed.append(f"{seed} {suite} {check['id']} {check['status']} {check['note']}")
    print(f"seeds {args.start}..{args.stop - 1}: {rows} rows, {len(failed)} not PASS")
    for line in failed:
        print(f"  {line}")
    for suite, suite_digest in per_suite.items():
        print(f"  {suite} sha256 {suite_digest.hexdigest()}")
    print(f"sha256 {digest.hexdigest()}")
    mismatch = args.expect is not None and digest.hexdigest() != args.expect
    if mismatch:
        print(f"expected sha256 {args.expect}")
    return int(bool(failed) or mismatch)


if __name__ == "__main__":
    sys.exit(main())
