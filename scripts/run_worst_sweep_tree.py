#!/usr/bin/env python3
"""Siggers search on the worst tree of the special-triad sweep.

The tree is the canned triad's template with the attached paths
111011 111011 110111 11101011 11101011 11100111.  Its Siggers operation
exists, and the search builds far more of the indicator than the triad's
refutation does, so this is the largest search the library is known to run.
The script runs `find_siggers` on the tree's core and prints the wall time,
the process's max RSS when the search returns and the digest of the found
table (the first 16 hex digits of the SHA-256 of its `.op` text).  It exits
1 unless the digest is the recorded one.
"""

import hashlib
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hcolor.algebra import format_op
from hcolor.classify import compute_core
from hcolor.minpath import OrientedPath
from hcolor.polysearch import find_siggers
from hcolor.spectree import SpecialTreeSpec, canned_triad, compile_tree

PATHS = ("111011", "111011", "110111", "11101011", "11101011", "11100111")
DIGEST = "1b1f5e2a7b5fa355"

if __name__ == "__main__":
    triad = canned_triad()
    spec = SpecialTreeSpec(triad.a_count, triad.b_count, triad.height, tuple(
        (a, b, OrientedPath(word)) for (a, b, _), word in zip(triad.template_edges, PATHS)))
    core = compute_core(compile_tree(spec).digraph).core
    start = time.perf_counter()
    table = find_siggers(core)
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    # read before the digest: the .op text of 37^4 values takes about 100 MB
    digest = hashlib.sha256(format_op(table).encode()).hexdigest()[:16] if table else "none"
    print(f"worst sweep tree: {core.vertex_count}-vertex core, find_siggers {wall:.1f} s, "
          f"max RSS {rss_mb:.1f} MB, table digest {digest}")
    raise SystemExit(0 if digest == DIGEST else 1)
