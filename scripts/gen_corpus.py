#!/usr/bin/env python3
"""Emit the seeded tree corpus and run the structural check suite on it."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpus import random_special_trees
from hcolor.classify import verify_lemma_suite
from hcolor.spectree import compile_tree, format_stree

if __name__ == "__main__":
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("corpus_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, spec in enumerate(random_special_trees(25)):
        (out_dir / f"tree_{i:02d}.stree").write_text(format_stree(spec))
        report = verify_lemma_suite(spec, seed=42 + i)
        (out_dir / f"tree_{i:02d}.report.json").write_text(
            json.dumps(report, indent=2) + "\n")
        size = compile_tree(spec).digraph.vertex_count
        print(f"tree_{i:02d}: {size} vertices, wnu={report['top_bottom_wnu']}")
    print(f"wrote corpus to {out_dir}/")
