"""Run one `zrxner` command with the span recorder installed.

Usage: python3 perfbench/traced_cli.py SPANS_JSON RUN_ID -- COMMAND [ARGS...]

The whole command is one `cli.<command>` span; the spans of the layers it
calls nest under it. The spans are written to SPANS_JSON when the command
ends, whatever its exit code.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main():
    out_path, run_id, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    rec = spans.install(run_id)
    from zrxner import cli

    code = 1
    try:
        code = rec.wrap(f"cli.{argv[0]}", cli.main)(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        rec.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
