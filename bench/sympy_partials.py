"""Reference values for chart_swell's partial-derivative chains, from sympy.

Reads {"order": [coordinate, ...], "points": [[rational, ...], ...],
"exprs": [sympy expression, ...]} as JSON on standard input and writes, for
each expression, the exact value of every successive partial derivative at
every point, as strings "p/q".  chart_swell runs it in a child process so
that sympy's import stays out of the measured process.
"""

import json
import sys

import sympy


def main():
    request = json.load(sys.stdin)
    x, y, z = sympy.symbols("x y z")
    names = {"x": x, "y": y, "z": z}
    points = [dict(zip((x, y, z), (sympy.Rational(v) for v in p))) for p in request["points"]]
    out = []
    for text in request["exprs"]:
        e = sympy.sympify(text, locals=names)
        steps = []
        for c in request["order"]:
            e = sympy.diff(e, names[c])
            steps.append([str(e.subs(p)) for p in points])
        out.append(steps)
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
