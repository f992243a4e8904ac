"""Fit, and check, the rational coefficients of cev2's erf kernel.

``tensor._erf`` keeps the rational forms of Cody's piecewise layout (W. J.
Cody, "Rational Chebyshev approximations for the error function", Math.
Comp. 23:631, 1969) on a = |x|, and restores the sign afterwards:

    a <= 1        erf(a) = a * (1 + P1(a^2) / Q1(a^2))
    1 < a < 6     erf(a) = 1 - exp(-a^2) * P2(a) / Q2(a)
    a >= 6        erf(a) = 1, since erfc(6) is under half an ulp of 1

It departs from Cody's cuts in two places, both for speed:
- the first cut sits at 1, not 0.5: most inputs GELU sees lie below 1, and
  the first piece costs about half the second;
- Cody's third piece, a rational in 1/a^2 past a = 4, keeps erfc's relative
  error small. erf does not need it: erfc(4) < 1.6e-8, so the second piece,
  fitted in erf's absolute error, holds to 6 at the same degrees.

This script derives each P / Q by the rational Remez exchange on a fine
grid, in 60-digit decimal arithmetic, against erf summed from its Maclaurin
series; it needs only the standard library. The first piece is fitted in
erf's relative error, so tiny and subnormal inputs keep full precision; it
yields erf(a) / a - 1, at most 0.16 in size, so its rounding errors reach
the result scaled down. The second is fitted in erf's absolute error, the
error the kernel's result carries. Each Q is scaled to a leading
coefficient of 1, which the kernel does not store.

    python tools/fit_erf.py          # print the constants for tensor.py
    python tools/fit_erf.py --check  # exit 1 unless tensor.py holds them and
                                     # _erf meets its error bound
"""

from __future__ import annotations

import os
import sys
import textwrap
from decimal import Decimal, localcontext

PREC = 60
GRID = 1500
# (name, P degree, Q degree) of each piece, in the kernel's order
PIECES = (("_ERF_SMALL", 5, 5), ("_ERF_LARGE", 5, 6))
# the cut between the pieces on |x|, and where erf reads exactly 1
CUTS = (1.0, 6.0)
# the kernel's max absolute error against the series on CHECK_POINTS
# uniform points of [-6, 6]; 2 ulps of a value in [0.5, 1)
CHECK_BOUND = 2.3e-16
CHECK_POINTS = 1201


def _pi() -> Decimal:
    """Machin's formula, pi = 16 atan(1/5) - 4 atan(1/239)."""
    def atan_inv(n: int) -> Decimal:
        x = Decimal(1) / n
        term, total, k = x, x, 1
        while abs(term) > Decimal(10) ** -(PREC + 5):
            term *= -x * x
            k += 2
            total += term / k
        return total
    return 16 * atan_inv(5) - 4 * atan_inv(239)


with localcontext() as _ctx:
    _ctx.prec = PREC
    _PI = _pi()
    _SQRT_PI = _PI.sqrt()


def _erf_over_x(y: Decimal) -> Decimal:
    """erf(x) / x at y = x^2: 2/sqrt(pi) * sum (-y)^n / (n! (2n + 1))."""
    term, total, n = Decimal(1), Decimal(1), 0
    while True:
        n += 1
        term *= -y / n
        add = term / (2 * n + 1)
        total += add
        if abs(add) < Decimal(10) ** -(PREC + 5):
            return 2 * total / _SQRT_PI


def erf(x: Decimal) -> Decimal:
    return x * _erf_over_x(x * x)


def _solve(a: list[list[Decimal]], b: list[Decimal]) -> list[Decimal]:
    """Gaussian elimination with partial pivoting."""
    n = len(b)
    rows = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(rows[r][c]))
        rows[c], rows[piv] = rows[piv], rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [u - f * v for u, v in zip(rows[r], rows[c])]
    out = [Decimal(0)] * n
    for r in reversed(range(n)):
        out[r] = (rows[r][n] - sum(rows[r][k] * out[k] for k in range(r + 1, n))) / rows[r][r]
    return out


def _poly(c: list[Decimal], x: Decimal) -> Decimal:
    acc = c[-1]
    for v in reversed(c[:-1]):
        acc = acc * x + v
    return acc


def _extrema(err: list[Decimal], count: int) -> list[int]:
    """Grid index of the largest |err| in each run of one sign, trimmed from
    the smaller end to ``count`` alternating points."""
    runs: list[int] = []
    for i, e in enumerate(err):
        if runs and (e < 0) == (err[runs[-1]] < 0):
            if abs(e) > abs(err[runs[-1]]):
                runs[-1] = i
        else:
            runs.append(i)
    while len(runs) > count:
        runs.pop(0 if abs(err[runs[0]]) < abs(err[runs[-1]]) else -1)
    return runs


def remez(x: list[Decimal], f: list[Decimal], w: list[Decimal], n: int, m: int
          ) -> tuple[list[Decimal], list[Decimal], Decimal]:
    """P (degree n) and Q (degree m, Q(0) = 1) minimizing max |w (f - P/Q)|
    over the grid x. Returns the coefficients, ascending, and that max."""
    count = n + m + 2
    ref = [int((len(x) - 1) * (1 - _cos(_PI * i / (count - 1))) / 2) for i in range(count)]
    q = [Decimal(1)] + [Decimal(0)] * m
    for _ in range(60):
        # E enters as E * Q(x_i): take Q from the last solve until E settles
        for _ in range(8):
            rows, rhs = [], []
            for k, i in enumerate(ref):
                pw = [Decimal(1)]
                while len(pw) <= max(n, m):
                    pw.append(pw[-1] * x[i])
                sign = 1 if k % 2 == 0 else -1
                rows.append(pw[:n + 1] + [-f[i] * pw[j] for j in range(1, m + 1)]
                            + [-sign * _poly(q, x[i]) / w[i]])
                rhs.append(f[i])
            sol = _solve(rows, rhs)
            p, q = sol[:n + 1], [Decimal(1)] + sol[n + 1:-1]
        if any(_poly(q, xi) <= 0 for xi in x):
            raise ArithmeticError("Q has a zero on the interval")
        err = [wi * (fi - _poly(p, xi) / _poly(q, xi)) for xi, fi, wi in zip(x, f, w)]
        new = _extrema(err, count)
        worst = max(abs(e) for e in err)
        if new == ref:
            return p, q, worst
        if len(new) < count:
            raise ArithmeticError(f"the error alternates only {len(new)} times")
        ref = new
    raise ArithmeticError("Remez exchange did not settle")


def _cos(x: Decimal) -> Decimal:
    term, total, n = Decimal(1), Decimal(1), 0
    while abs(term) > Decimal(10) ** -(PREC + 5):
        n += 2
        term *= -x * x / (n * (n - 1))
        total += term
    return total


def _grid(lo: Decimal, hi: Decimal) -> list[Decimal]:
    """GRID Chebyshev-spaced points of [lo, hi], ends included."""
    half, mid = (hi - lo) / 2, (hi + lo) / 2
    return [mid - half * _cos(_PI * i / (GRID - 1)) for i in range(GRID)]


def _problems():
    """Per piece: (grid, function, weight) in the piece's variable."""
    cut, saturation = (Decimal(c) for c in CUTS)
    ys = _grid(Decimal(0), cut * cut)
    small = [_erf_over_x(y) - 1 for y in ys]
    vs = _grid(cut, saturation)
    large_w = [(-v * v).exp() for v in vs]
    large = [(1 - erf(v)) / e for v, e in zip(vs, large_w)]
    return (ys, small, [1 / (1 + s) for s in small]), (vs, large, large_w)


def fit() -> dict[str, tuple[tuple[float, ...], tuple[float, ...]]]:
    """name -> (P, Q without its leading 1), ascending, rounded to float64;
    also prints each piece's fitted error."""
    out = {}
    with localcontext() as ctx:
        ctx.prec = PREC
        for (name, n, m), (x, f, w) in zip(PIECES, _problems()):
            p, q, worst = remez(x, f, w, n, m)
            print(f"# {name}: degrees {n}/{m}, weighted max error {float(worst):.3g}",
                  file=sys.stderr)
            lead = q[-1]
            out[name] = (tuple(float(c / lead) for c in p),
                         tuple(float(c / lead) for c in q[:-1]))
    return out


def check(fitted) -> list[str]:
    """Mismatches between tensor.py and the fit, and an _erf error over the
    bound against the series."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    import numpy as np
    from cev2 import tensor

    problems = [f"{name} in tensor.py differs from the fit {coefs}"
                for name, coefs in fitted.items() if getattr(tensor, name) != coefs]
    if tensor._ERF_CUTS != CUTS:
        problems.append(f"_ERF_CUTS in tensor.py is {tensor._ERF_CUTS}, the fit's is {CUTS}")
    xs = np.linspace(-6.0, 6.0, CHECK_POINTS)
    got = tensor._erf(xs.copy())
    with localcontext() as ctx:
        ctx.prec = PREC
        worst = max(abs(Decimal(float(g)) - erf(Decimal(float(v)))) for v, g in zip(xs, got))
    print(f"# _erf max abs error on {CHECK_POINTS} points of [-6, 6]: {float(worst):.3g}",
          file=sys.stderr)
    if worst > CHECK_BOUND:
        problems.append(f"_erf max abs error {float(worst):.3g} exceeds {CHECK_BOUND}")
    return problems


def main(argv: list[str]) -> int:
    fitted = fit()
    if argv == ["--check"]:
        problems = check(fitted)
        for line in problems:
            print(line)
        return 1 if problems else 0
    if argv:
        print(__doc__)
        return 2
    for name, pq in fitted.items():
        rows = (textwrap.fill(repr(c), 99, initial_indent="    ", subsequent_indent="     ",
                              break_on_hyphens=False) for c in pq)
        print(f"{name} = (\n" + ",\n".join(rows) + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
