"""Count the vertices of Hom(P_m, P_n) for regular polygons P_3..P_6.

Each row is an exact count for the true regular polygons: the survey
works on affine models of them over the real cyclotomic field
Q(2cos 2π/m, 2cos 2π/n), where every sign and rank is decided exactly.
Each printed cell carries its provenance: a closed-form count where a
formula is proven, an enumerated count otherwise.  The divisibility
column reports the symmetry constraints every true row satisfies.  A
printed row that breaks them or a closed form stops the demo, naming
the check it failed.
"""

from hompoly import divisibility_check, table_row
from hompoly.checks import check_table_row


def main() -> None:
    header = f"{'m':>2} {'n':>2} {'rank0':>6} {'rank1':>6} {'rank2':>6} {'total':>6}  divisible  provenance"
    print(header)
    print("-" * len(header))
    for m in range(3, 7):
        for n in range(3, 7):
            row, _ = table_row(m, n)
            marks = ",".join(sorted(set(row.provenance)))
            ok = "yes" if divisibility_check(row.total, m, n).ok else "NO"
            print(
                f"{m:>2} {n:>2} {row.rank0:>6} {row.rank1:>6} {row.rank2:>6}"
                f" {row.total:>6}  {ok:>9}  {marks}"
            )
            check_table_row(row)


if __name__ == "__main__":
    main()
