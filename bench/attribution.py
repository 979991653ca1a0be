"""Where the self time of a traced run went, by the outermost span above it.

    python3 bench/attribution.py bench/out/spans-tables.json

Reads the span file that `bench/run.py --trace 1` leaves behind and prints
the TOP spans with the largest total self time; for each, the share of that time
spent under each outermost (root) span.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict

TOP = 5


def attribute(names: list[str], spans: list[list[int]]):
    """{name: {root name: self ns}} over all spans."""
    child_ns = [0] * len(spans)
    for name_id, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    root_of: list[int] = []
    table: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for k, (name_id, parent, start, end) in enumerate(spans):
        root = k if parent < 0 else root_of[parent]
        root_of.append(root)
        table[names[name_id]][names[spans[root][0]]] += end - start - child_ns[k]
    return table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spans")
    args = parser.parse_args()
    with open(args.spans) as fh:
        data = json.load(fh)
    table = attribute(data["names"], data["spans"])
    ranked = sorted(table.items(), key=lambda item: -sum(item[1].values()))
    for name, by_root in ranked[:TOP]:
        total = sum(by_root.values())
        shares = ", ".join(
            f"{root} {ns / total:.0%}"
            for root, ns in sorted(by_root.items(), key=lambda item: -item[1])
        )
        print(f"{name:45s} {total / 1e9:8.3f} s  under: {shares}")


if __name__ == "__main__":
    main()
