#!/usr/bin/env python3
"""Full classification of the 39-vertex triad.

The Siggers indicator has 39^4 tuples, but the refutation is found in its
pinned component, which is all the search builds; the run takes seconds.
The result is printed as the classifier JSON report.  An optional argument
sets the wall budget in seconds.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hcolor.classify import classify_special_tree
from hcolor.errors import Budget
from hcolor.spectree import canned_triad

if __name__ == "__main__":
    wall = float(sys.argv[1]) if len(sys.argv) > 1 else None
    t0 = time.time()
    report = classify_special_tree(canned_triad(), Budget(wall=wall))
    payload = report.to_dict()
    payload["wall_seconds"] = round(time.time() - t0, 1)
    print(json.dumps(payload, indent=2))
    raise SystemExit(0 if report.verdict == "NP_COMPLETE" else 3)
