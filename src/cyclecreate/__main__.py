"""The process entry of `python -m cyclecreate` and of the `cyclecreate` script.

run() freezes the collector's view of every object that exists before cli is
imported: the interpreter's start-up objects, and those of any site hook.
No collection walks them again, during the job or at exit.  Nothing among
them needs a finalizer that only a collection would run, and every file the
command opens is closed by a `with` block, so freezing them changes no output.
cli.main itself never freezes, because it is also called in process.
"""

import gc
import sys


def run() -> int:
    gc.freeze()
    from .cli import main

    return main()


if __name__ == "__main__":
    sys.exit(run())
