#!/usr/bin/env python3
"""Hyperbolic lines and the enriched linear space L(S).

The double perp {a,b}^perpperp of a non-collinear pair is either fat
(q+1 points, symplectic case) or thin (just {a,b}).  Adjoining all
hyperbolic lines to the ordinary ones yields a linear space L(S); the
space is symplectic exactly when L(S) is a projective space, which is why
W(3,2) lands on the 35 lines of PG(3,2) while Q(4,3) picks up thousands
of 2-point joining lines.
"""

from collections import Counter

from polarium import all_hyperbolic_lines, build_space, linear_space


def main():
    for name in ["W(3,2)", "W(3,3)", "Q(4,2)", "Q(4,3)", "Q-(5,2)",
                 "Q+(3,3)", "dual(H(4,4))"]:
        space = build_space(name)
        hls = all_hyperbolic_lines(space).points()
        sizes = Counter(map(len, hls))
        print(f"{name:14s} {space.n_points:4d} points, {len(space.lines):4d} lines; "
              f"{len(hls):5d} hyperbolic lines of sizes {dict(sizes)}; "
              f"L(S) has {len(linear_space(space))} lines")

    w32 = build_space("W(3,2)")
    pg32_lines = (15 * 14 // 2) // 3
    print(f"\nW(3,2): 15 + 20 = 35 = line count of PG(3,2) ({pg32_lines}); "
          "the enriched space is projective, so the quadrangle is symplectic.")


if __name__ == "__main__":
    main()
