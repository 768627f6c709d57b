"""The process entry: ``python -m sipcraft`` and the ``sipcraft`` console script."""

import gc
import sys

from sipcraft.cli import main


def run() -> None:
    """Run one CLI command as a whole process and exit with its code.

    The heap is frozen on the way out, also when argparse exits or an
    exception escapes, so the collections the interpreter runs while it
    shuts down skip every object alive then; the process is about to exit,
    and those walks would free nothing it needs. The rest of the exit stays:
    atexit handlers run, stdout and stderr are flushed (a failed flush still
    reports and sets the exit code), and modules are torn down. ``cli.main``
    never freezes, because in-process callers run it many times and a freeze
    there would keep their garbage alive.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
