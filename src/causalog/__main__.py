import os
import sys

from .cli import main


def run() -> int:
    """``cli.main`` as a process: a reader that closes stdout early, even
    before ``--help`` writes, makes it exit 1 with no traceback."""
    try:
        try:
            return main()
        finally:  # also when ``--help`` exits through SystemExit
            sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout once more on exit: send it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(run())
