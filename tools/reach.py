"""List the package functions that no CLI digest case or benchmark workload calls.

Usage: ``python tools/reach.py SRC``

Runs every ``tools/cli_digests.py`` case and one pass of each
``bench/workloads.py`` workload of the tree ``SRC`` in this process under
``sys.setprofile``, writing into a temporary directory, and prints
``module qualname`` for each function of ``SRC/src/swarmcrit`` that no call
entered.  ``--jobs`` workers are not traced; lambdas and comprehensions are
not listed.
"""

import inspect
import os
import sys
import tempfile
from pathlib import Path


def _functions(package: Path) -> set:
    """(file, first line, qualname) of each named function under ``package``."""
    found = set()
    for path in package.glob("*.py"):
        todo = [compile(path.read_text(), str(path), "exec")]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if inspect.iscode(c))
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                found.add((str(path), code.co_firstlineno, code.co_qualname))
    return found


def main(root: Path) -> int:
    sys.path[:0] = [str(root / "src"), str(root / "tools"), str(root / "bench")]
    called = set()
    # set before the imports, so that calls made at import time count
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(
        (frame.f_code.co_filename, frame.f_code.co_firstlineno, frame.f_code.co_qualname)))
    from cli_digests import COMMANDS, write_inputs
    from workloads import WORKLOADS, cli_seed

    from swarmcrit.cli import dispatch

    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        # the digest cases take paths relative to their output directory,
        # and the workloads read bench/ files relative to the tree
        runs = [(tmp, argv) for argv, _ in COMMANDS]
        runs += [(root, call.argv) for w in WORKLOADS.values()
                 for call in w.build(lambda i: cli_seed(0, 0, i), tmp)]
        for cwd, argv in runs:
            os.chdir(cwd)
            if dispatch(argv) != 0:
                failed.append(argv[0])
        os.chdir(root)
    sys.setprofile(None)
    for path, _, name in sorted(_functions(root / "src" / "swarmcrit") - called):
        print(Path(path).stem, name)
    return f"failed calls: {failed}" if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(Path(sys.argv[1]).resolve()))
