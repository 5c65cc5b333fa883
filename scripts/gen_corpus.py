#!/usr/bin/env python3
"""Emit the seeded tree corpus, run the structural check suite on it and
classify each tree.

Per tree it prints the vertex count, the top-and-bottom WNU outcome, the
verdict, the width certificates and the width stage's time.  It exits 1
unless every tree reads BOUNDED_WIDTH with majority and wnu3 found.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpus import random_special_trees
from hcolor.classify import BOUNDED_WIDTH, classify_special_tree, verify_lemma_suite
from hcolor.spectree import compile_tree, format_stree

if __name__ == "__main__":
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("corpus_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    ok, width_s = True, 0.0
    for i, spec in enumerate(random_special_trees(25)):
        (out_dir / f"tree_{i:02d}.stree").write_text(format_stree(spec))
        report = verify_lemma_suite(spec, seed=42 + i)
        (out_dir / f"tree_{i:02d}.report.json").write_text(
            json.dumps(report, indent=2) + "\n")
        size = compile_tree(spec).digraph.vertex_count
        rep = classify_special_tree(spec, seed=42 + i)
        width, seconds = rep.width_certificates, rep.timings.get("width_certificates", 0.0)
        width_s += seconds
        ok &= rep.verdict == BOUNDED_WIDTH and width == {"majority": "found", "wnu3": "found"}
        print(f"tree_{i:02d}: {size} vertices, wnu={report['top_bottom_wnu']}, "
              f"{rep.verdict}, majority={width.get('majority')}, wnu3={width.get('wnu3')}, "
              f"width stage {seconds * 1e3:.1f} ms")
    print(f"width stage {width_s:.3f} s over the corpus")
    print(f"wrote corpus to {out_dir}/")
    raise SystemExit(0 if ok else 1)
