#!/usr/bin/env python3
"""Emit problem documents for the CLI.

Writes JSON files that ``ipiag run --problem`` accepts: two sizes of the
chain-coupled quadratic (whose optimum is known in closed form) and the
planted sparse regression instance.

Example:
    python scripts/make_problems.py --out problems
"""

import argparse
import json
import os

from ipiag import LassoSpec, ToySpec, lasso_document, toy_document


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--out", default="problems")
    parser.add_argument(
        "--full", action="store_true", help="also write the 300 x 1000 regression instance"
    )
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    docs = {
        "toy10.json": toy_document(ToySpec(num_components=10)),
        "toy100.json": toy_document(ToySpec(num_components=100)),
        "lasso_desk.json": lasso_document(
            LassoSpec(rows=60, cols=200, sparsity=0.1, l1_weight=0.2, seed=7)
        ),
    }
    if args.full:
        docs["lasso_full.json"] = lasso_document(
            LassoSpec(rows=300, cols=1000, sparsity=0.1, l1_weight=0.2, seed=7)
        )
    for name, doc in docs.items():
        path = os.path.join(args.out, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(path)


if __name__ == "__main__":
    main()
