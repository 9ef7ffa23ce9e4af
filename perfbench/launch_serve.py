"""Start ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/launch_serve.py TRACE_DIR serve ARGS...``.
The wrappers go in first, then the real CLI entry runs; the daemon's
spans are written to ``TRACE_DIR`` when it shuts down.
"""

import sys

import common


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    common.import_program()
    import tracing

    recorder = tracing.install(trace_dir)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main())
