#!/usr/bin/env python3
"""Compare benchmark trajectory rows and gate on pinned-metric regressions.

Trajectory files are written by the C++ bench harness (bench/reporter.h):

    {"bench": "serve_load", "schema": 1, "rows": [row, row, ...]}

where every row carries a fingerprint (compiler, build type, CPU, mode,
threads), a label, a UTC stamp, and a metrics map. Metrics marked
``pinned`` are the regression contract; the rest are informational.

Two modes:

  bench_diff.py TRAJECTORY
      Single file: compare the first row (the committed "before") against
      the last row (the newest measurement). This is the in-repo gate —
      the committed trajectory must show the newest row holding or
      beating the oldest one. A one-row trajectory is compared with
      itself (its first and last row are the same row): it is a baseline
      only, reported as such, and passes.

  bench_diff.py BASELINE CURRENT
      Two files: compare the last row of each (e.g. a committed
      trajectory against one freshly produced by CI).

Exit codes:

  0  every pinned metric held (within --threshold) or improved
  1  a pinned metric regressed beyond the threshold
  2  malformed input or a pinned baseline metric missing from the
     current row (a silently dropped metric must not pass the gate)
  3  fingerprints differ and --require-fingerprint-match was given

Fingerprint differences are always *reported*; without
--require-fingerprint-match they only downgrade the verdict text (a
cross-machine or smoke-vs-full comparison is still printable, but it is
not a like-for-like regression verdict). --informational prints the full
comparison and always exits 0 — the CI smoke job runs in this mode
because runner hardware is not comparable with the committed rows.
"""

import argparse
import json
import sys

OK, REGRESSION, BAD_INPUT, FINGERPRINT = 0, 1, 2, 3


def fail(msg):
    print(f"bench_diff: error: {msg}", file=sys.stderr)
    sys.exit(BAD_INPUT)


def load_trajectory(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        fail(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        fail(f"{path} is not valid JSON: {exc}")
    for key in ("bench", "schema", "rows"):
        if key not in doc:
            fail(f"{path} is missing the '{key}' field")
    if not isinstance(doc["rows"], list) or not doc["rows"]:
        fail(f"{path} has no trajectory rows")
    for row in doc["rows"]:
        if "metrics" not in row or "fingerprint" not in row:
            fail(f"{path} has a row without metrics/fingerprint")
    return doc


def row_name(doc, row):
    return f"{doc['bench']}[{row.get('label', '?')} @ {row.get('utc', '?')}]"


def fingerprint_diffs(base_row, cur_row):
    base_fp = base_row["fingerprint"]
    cur_fp = cur_row["fingerprint"]
    diffs = []
    for key in sorted(set(base_fp) | set(cur_fp)):
        a, b = base_fp.get(key), cur_fp.get(key)
        if a != b:
            diffs.append(f"{key}: {a!r} -> {b!r}")
    return diffs


def change_pct(base, cur, better):
    """Signed change in the metric's *good* direction (positive = better)."""
    if base == 0:
        return 0.0
    raw = 100.0 * (cur - base) / abs(base)
    return raw if better == "higher" else -raw


def compare(doc_base, base_row, doc_cur, cur_row, threshold):
    """Returns (exit_code, lines) before fingerprint/informational policy."""
    lines = [
        f"baseline: {row_name(doc_base, base_row)}",
        f"current:  {row_name(doc_cur, cur_row)}",
    ]
    base_metrics = base_row["metrics"]
    cur_metrics = cur_row["metrics"]
    code = OK
    for name in sorted(base_metrics):
        base = base_metrics[name]
        pinned = bool(base.get("pinned"))
        if name not in cur_metrics:
            # A pinned metric that vanished is a broken contract, not a
            # pass; an unpinned one is merely worth mentioning.
            lines.append(
                f"  {'PINNED ' if pinned else ''}metric '{name}' missing "
                f"from current row")
            if pinned:
                code = max(code, BAD_INPUT)
            continue
        cur = cur_metrics[name]
        better = base.get("better", "higher")
        delta = change_pct(base["value"], cur["value"], better)
        verdict = "ok"
        if pinned and delta < -threshold:
            verdict = f"REGRESSION (>{threshold:g}% worse)"
            code = max(code, REGRESSION)
        elif delta < -threshold:
            verdict = "worse (unpinned)"
        elif delta > threshold:
            verdict = "improved"
        tag = "*" if pinned else " "
        lines.append(
            f" {tag}{name}: {base['value']:g} -> {cur['value']:g} "
            f"{base.get('unit', '')} ({delta:+.1f}% {better}-is-better) "
            f"{verdict}")
    for name in sorted(set(cur_metrics) - set(base_metrics)):
        lines.append(f"  new metric '{name}' (no baseline)")
    return code, lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="diff benchmark trajectory rows; gate pinned metrics")
    parser.add_argument("baseline", help="trajectory JSON (committed)")
    parser.add_argument("current", nargs="?",
                        help="trajectory JSON to compare against; omitted = "
                             "first-vs-last row of BASELINE")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="allowed regression %% on pinned metrics "
                             "(default 10)")
    parser.add_argument("--informational", action="store_true",
                        help="print the comparison but always exit 0")
    parser.add_argument("--require-fingerprint-match", action="store_true",
                        help="exit 3 when the compared rows' fingerprints "
                             "differ")
    args = parser.parse_args(argv)

    doc_base = load_trajectory(args.baseline)
    baseline_only = args.current is None and len(doc_base["rows"]) == 1
    if args.current is None:
        doc_cur = doc_base
        base_row, cur_row = doc_base["rows"][0], doc_base["rows"][-1]
    else:
        doc_cur = load_trajectory(args.current)
        if doc_base["bench"] != doc_cur["bench"]:
            fail(f"bench mismatch: {doc_base['bench']} vs {doc_cur['bench']}")
        base_row, cur_row = doc_base["rows"][-1], doc_cur["rows"][-1]

    code, lines = compare(doc_base, base_row, doc_cur, cur_row,
                          args.threshold)

    fp_diffs = fingerprint_diffs(base_row, cur_row)
    if fp_diffs:
        lines.append("  fingerprint differs (not a like-for-like verdict):")
        lines.extend(f"    {d}" for d in fp_diffs)
        if args.require_fingerprint_match:
            code = max(code, FINGERPRINT)

    print("\n".join(lines))
    if baseline_only:
        print(f"bench_diff: {args.baseline} has one row; baseline only, "
              f"nothing to gate yet")
    if args.informational:
        if code != OK:
            print(f"bench_diff: informational mode; suppressing exit "
                  f"code {code}")
        return OK
    if code == OK:
        print("bench_diff: all pinned metrics held")
    return code


if __name__ == "__main__":
    sys.exit(main())
