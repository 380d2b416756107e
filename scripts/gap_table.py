#!/usr/bin/env python3
"""Sweep the particle number and tabulate both spectral gaps against the
large-N limit.  Writes gap_table.csv and prints the table."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kaclab.cli import emit_csv
from kaclab.core import Params
from kaclab.generator import first_gap, second_gap, second_gap_limit


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--n-values", type=str, default="2,3,4,5,8,16,32,64,128,1000,100000,1000000000")
    ap.add_argument("--out", type=str, default="gap_table.csv")
    args = ap.parse_args()

    rows = []
    print(f"{'N':>10}  {'first':>10}  {'second':>12}  {'limit':>12}")
    for n in (int(x) for x in args.n_values.split(",")):
        p = Params(n_particles=n, lam=args.lam, mu=args.mu)
        g1 = first_gap(p).value
        g2 = second_gap(p)
        lim = second_gap_limit(p)
        rows.append((n, args.lam, args.mu, "first", g1))
        rows.append((n, args.lam, args.mu, "second", g2))
        rows.append((n, args.lam, args.mu, "second_limit", lim))
        print(f"{n:>10}  {g1:>10.6f}  {g2:>12.8f}  {lim:>12.8f}")
    emit_csv(args.out, ["N", "lambda", "mu", "route", "value"], rows,
             [f"lambda = {args.lam!r}", f"mu = {args.mu!r}"])
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
