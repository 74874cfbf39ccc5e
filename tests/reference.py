"""
The brute-force loop checker, kept as the test reference for `validate`.

It walks pairs and triples in lex order with plain Python loops and stops
at the first failure of each axiom, so its witnesses are lex-first by
construction. `ybekit.solutions.validate` evaluates the same axioms over
arrays and must agree with it on verdicts and on all three witnesses.
"""
from __future__ import annotations

from ybekit.solutions import Solution, ValidationReport, gamma_table


def loop_validate(s: Solution) -> ValidationReport:
    n = s.n
    gt = gamma_table(s)
    r = [[(s.sigma[x][y], gt[y][x]) for y in range(n)] for x in range(n)]

    involutive_ce = None
    for x in range(n):
        for y in range(n):
            u, v = r[x][y]
            if r[u][v] != (x, y):
                involutive_ce = (x, y)
                break
        if involutive_ce:
            break

    nondegenerate_ce = None
    for y, row in enumerate(gt):
        for x in range(n):
            for x2 in range(x + 1, n):
                if row[x] == row[x2]:
                    nondegenerate_ce = (y, x, x2)
                    break
            if nondegenerate_ce:
                break
        if nondegenerate_ce:
            break

    braid_ce = None
    for x in range(n):
        rx = r[x]
        for y in range(n):
            ry = r[y]
            for z in range(n):
                a, b = rx[y]
                c, d = r[b][z]
                e, f = r[a][c]
                g, h = ry[z]
                i, j = r[x][g]
                k, m = r[j][h]
                if (e, f, d) != (i, k, m):
                    braid_ce = (x, y, z)
                    break
            if braid_ce:
                break
        if braid_ce:
            break

    return ValidationReport(
        involutive=involutive_ce is None,
        nondegenerate=nondegenerate_ce is None,
        braid=braid_ce is None,
        braid_counterexample=braid_ce,
        involutive_counterexample=involutive_ce,
        nondegenerate_counterexample=nondegenerate_ce,
    )
