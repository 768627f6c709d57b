"""The process entry: ``python -m sipcraft`` and the ``sipcraft`` console script."""

import gc
import sys

from sipcraft.cli import EXIT_ERROR, main


def run() -> None:
    """Run one CLI command as a whole process and exit with its code.

    ``cli.main`` reports every failure on one stderr line with exit 2; an
    ``OSError`` that escapes it means that line could not be written either.
    The process then still exits 2, with no traceback, and drops
    ``sys.stderr`` so that the exit's flush does not fail on it again and
    turn the code into 120. The heap is frozen on the way out, also when
    argparse exits or an exception escapes, so the collections the
    interpreter runs while it shuts down skip every object alive then; the
    process is about to exit, and those walks would free nothing it needs.
    The rest of the exit stays: atexit handlers run, stdout and stderr are
    flushed (a failed flush of stdout still reports and sets the exit code),
    and modules are torn down. ``cli.main`` never freezes, because in-process
    callers run it many times and a freeze there would keep their garbage
    alive.
    """
    try:
        sys.exit(main())
    except OSError:
        sys.stderr = None
        sys.exit(EXIT_ERROR)
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
