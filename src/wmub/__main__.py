import os
import sys

from .cli import main


def run() -> int:
    """`main` for a process of its own: the `wmub` command and `python -m wmub`."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early, as `| head` does.  Point stdout
        # at devnull so the flush at interpreter exit cannot raise again,
        # and exit with the status a shell gives a process killed by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13
    return code


if __name__ == "__main__":
    sys.exit(run())
