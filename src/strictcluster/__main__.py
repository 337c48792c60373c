"""The process entry of ``python -m strictcluster`` and the console script.

This module imports nothing of the package beyond its lazy ``__init__``,
so the entry runs before numpy and the CLI are imported.
"""

import gc
import sys


def process_main() -> int:
    """Import the CLI with the cyclic collector off, freeze what the import
    made, then run ``strictcluster.cli.main`` on ``sys.argv``.

    With the collector on, the imports of numpy and the package start about
    33 young collections, each scanning objects that live as long as the
    process. gc.freeze() then moves every object the process holds out of
    the collector's reach, so neither the run's full collections nor the
    one Python makes at exit walk them. The collector is on again before
    main() runs. strictcluster.cli.main(argv) itself neither disables nor
    freezes anything, so a program that calls it in process keeps normal
    collection.
    """
    gc.disable()
    try:
        from .cli import main

        gc.freeze()
    finally:
        gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(process_main())
