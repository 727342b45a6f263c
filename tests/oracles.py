"""Independent exact oracles shared by the test modules.

The package reads cone coordinates and smoothness off one Smith form per cone
(intlat.cone_inverse); the tests check it against a plain Gauss-Jordan
elimination over the rationals.
"""
from fractions import Fraction


def solve_rational(Arows: list, b: list):
    """Solve A x = b exactly over Q; returns list of Fractions or None if inconsistent.

    A may have more rows than columns (overdetermined); any solution is returned
    only when the system is consistent, and it is unique when A has full column rank.
    """
    m = len(Arows)
    n = len(Arows[0]) if m else 0
    M = [[Fraction(Arows[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if M[i][c] != 0), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        pv = M[r][c]
        M[r] = [x / pv for x in M[r]]
        for i in range(m):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [M[i][k] - f * M[r][k] for k in range(n + 1)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if M[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = M[i][n]
    return x
