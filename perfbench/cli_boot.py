"""Run `epinmt.cli.main` in this process, counting warnings and optionally tracing.

    python3 cli_boot.py --stats STATS.json [--spans SPANS.json.gz] -- <epinmt args>

Every warning is counted (the default filter would show only the first per
location). With --spans, the tracer's wrappers are installed before
`cli.main` runs and the spans are written out when it returns.
"""

import argparse
import json
import sys
import warnings


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stats", required=True)
    parser.add_argument("--spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from epinmt import cli

    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    count = 0

    def show(*_args, **_kwargs):
        nonlocal count
        count += 1

    warnings.simplefilter("always")
    warnings.showwarning = show
    rc = cli.main(argv)
    with open(args.stats, "w", encoding="utf-8") as f:
        json.dump({"returncode": rc, "warnings": count}, f)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.spans)
    return rc


if __name__ == "__main__":
    sys.exit(main())
