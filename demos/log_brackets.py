"""Certified brackets for the diagonal tensor norm and the projection constant.

For each n the lower bracket comes from the rectangle witness pairing and the
upper bracket from the corner decomposition; both are certified against the
analytic floors and ceilings they must respect.  The bracket midpoint tracks
sqrt(n (1 + ln n)), and the projection-constant bracket tracks
sqrt(n / (1 + ln n)).
"""

import math

import numpy as np

from ohlab.tensorlog import bracket_report


def main():
    print(f"{'n':>6} {'lower':>10} {'upper':>10} {'target':>10} "
          f"{'pi1 lo':>9} {'pi1 hi':>9} {'lam lo':>8} {'lam hi':>9}")
    mids, targets = [], []
    for n in (8, 32, 128, 512, 2048):
        rep = bracket_report(n)
        target = math.sqrt(n * (1 + math.log(n)))
        mids.append(0.5 * (rep.lower + rep.upper))
        targets.append(target)
        print(
            f"{n:>6} {rep.lower:>10.4f} {rep.upper:>10.3f} {target:>10.3f} "
            f"{rep.pi1_lo:>9.4f} {rep.pi1_hi:>9.2f} {rep.lambda_lo:>8.4f} {rep.lambda_hi:>9.2f}"
        )
    slope = np.polyfit(np.log(targets), np.log(mids), 1)[0]
    print(f"\nlog-log slope of bracket midpoints vs sqrt(n(1+ln n)): {slope:.4f}")


if __name__ == "__main__":
    main()
