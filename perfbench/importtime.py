"""Set-up time: importing liespectra and building root data, in a fresh interpreter.

    python3 perfbench/importtime.py <src dir> <group>...

First imports liespectra and builds the groups' root data untimed (that import
may compile) and prints the names of the modules it added to ``sys.modules``,
space-separated.  Then, for each line read from standard input, it drops every
one of those modules, the standard-library modules the package pulls in as
well as its own, imports the package and builds the root data again, and
prints the seconds that took.  So a sample costs what ``import liespectra``
costs a process that has only started the interpreter; interpreter start,
which the ``cli`` workload measures, stays out.
"""

import gc
import sys
import time


def main(argv):
    src, groups = argv[0], argv[1:]
    sys.path.insert(0, src)
    before = set(sys.modules)
    import liespectra

    for g in groups:
        liespectra.parse_group(g)
    added = sorted(set(sys.modules) - before)
    del liespectra
    print(" ".join(added), flush=True)
    for _ in sys.stdin:
        for name in added:
            sys.modules.pop(name, None)
        gc.collect()
        t0 = time.perf_counter()
        ls = __import__("liespectra")
        for g in groups:
            ls.parse_group(g)
        print(repr(time.perf_counter() - t0), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
