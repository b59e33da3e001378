#!/usr/bin/env python3
"""Reproduce the benchmark table on a directory of Solomon-derived instances.

Builds a manifest by inspecting each file (size class from the number of
customer rows; spatial class C/R/RC from the instance name; tight/wide
windows from the series digit, 1xx vs 2xx), writes it to the output
directory and runs `cdsp suite` on it, which prints the aggregate table.
`--time-limit` and `--workers` go to `cdsp suite` as given;
left out, its defaults (the benchmark protocol's) hold.

Examples:
    python scripts/reproduce_benchmark.py data/ --manifest-only --out results/
    python scripts/reproduce_benchmark.py data/ --sizes 25 --workers 8 --out results/
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from pathlib import Path

from cdsp import Setting, cli, parse_solomon

NAME_RE = re.compile(r"^(RC|C|R)(\d)", re.IGNORECASE)


def classify(path: Path) -> Setting | None:
    try:
        raw = parse_solomon(path.read_text(encoding="utf-8"))
    except Exception as exc:
        print(f"skipping {path}: {exc}", file=sys.stderr)
        return None
    n = len(raw.sites) - 1
    name = raw.name or path.stem
    match = NAME_RE.match(name.strip()) or NAME_RE.match(path.stem)
    klass = match.group(1).upper() if match else None
    tw = None
    if match:
        tw = "tight" if match.group(2) == "1" else "wide"
    return Setting(size=n if n in (25, 50, 100) else None, klass=klass, tw=tw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("data_dir", help="directory holding the instance files")
    parser.add_argument("--pattern", default="**/*.txt", help="glob under data_dir")
    parser.add_argument("--out", default="benchmark-results", help="output directory")
    parser.add_argument("--sizes", type=int, nargs="*", help="restrict to these size classes")
    parser.add_argument("--time-limit", help="seconds per instance (cdsp suite's default)")
    parser.add_argument("--workers", help="parallel instances (cdsp suite's default)")
    parser.add_argument(
        "--manifest-only", action="store_true", help="write manifest.csv and stop"
    )
    args = parser.parse_args(argv)

    files = sorted(Path(args.data_dir).glob(args.pattern))
    if not files:
        print(f"no instance files match {args.pattern} under {args.data_dir}", file=sys.stderr)
        return 1

    rows = []
    for path in files:
        setting = classify(path)
        if setting is None or (args.sizes and setting.size not in args.sizes):
            continue
        rows.append(
            [str(path.resolve()), setting.size or "", setting.klass or "", setting.tw or ""]
        )
    print(f"{len(rows)} instances manifested from {len(files)} files")

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # as `cdsp suite --out` reports it
        raise cli._failure(args.out, exc) from None
    manifest = out / "manifest.csv"
    with open(manifest, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["path", "size", "class", "tw"])
        writer.writerows(rows)
    print(f"manifest written to {manifest}")
    if args.manifest_only:
        return 0

    suite = ["suite", str(manifest), "--out", str(out)]
    given = {"--time-limit": args.time_limit, "--workers": args.workers}
    for flag, value in given.items():
        if value is not None:
            suite += [flag, value]
    return cli.main(suite)


if __name__ == "__main__":
    sys.exit(main())
