"""Command line: `mvtk example a4|a5 [--json]`.

Runs one of the paper's worked examples as an identity between two
independent pipelines: the MV side D(Z_tau), from the orbital-variety chart
ideal and its multidegree, against the flag function of the matching
preprojective module, from F_q point counts.  Prints both sides and whether
they agree; the exit status is 0 exactly when they do.
"""

from __future__ import annotations

import argparse
import importlib.resources as res
import json
import sys
import time

from .orbital import Tableau, dbar_mv, orbital_ideal
from .preproj import flag_function, load_module_fixture

# name -> (tableau, module fixture, fixture parameters, primes for the flag side)
EXAMPLES = {
    "a4": ([[1, 2], [3, 4], [5]], "a4_module.json", None, (2, 3, 5, 7)),
    # the default primes include 2, where a = 2 reduces badly
    "a5": ([[1, 1, 1, 3], [2, 2, 5], [3, 4], [4, 6]], "a5_module.json", {"a": 2},
           (5, 7, 11, 13)),
}


def run_example(name: str) -> dict:
    rows, fixture, params, primes = EXAMPLES[name]
    module = load_module_fixture(str(res.files("mvtk") / "fixtures" / fixture), params=params)
    t0 = time.perf_counter()
    mv = dbar_mv(orbital_ideal(Tableau(rows)))
    t1 = time.perf_counter()
    flag = flag_function(module, primes=primes)
    t2 = time.perf_counter()
    return {
        "example": name,
        "tableau": rows,
        "module": {"fixture": fixture, "params": params or {}, "primes": list(primes)},
        "mv": str(mv),
        "flag": str(flag),
        "equal": mv == flag,
        "seconds": {"mv": round(t1 - t0, 3), "flag": round(t2 - t1, 3)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mvtk")
    commands = parser.add_subparsers(dest="command", required=True)
    example = commands.add_parser(
        "example", help="check D(Z_tau) = flag function on a worked example")
    example.add_argument("name", choices=sorted(EXAMPLES))
    example.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    out = run_example(args.name)
    if args.json:
        print(json.dumps(out))
    else:
        print(f"example  {out['example']}: tau = {out['tableau']}")
        print(f"MV side  D(Z_tau) = {out['mv']}  ({out['seconds']['mv']} s)")
        print(f"flag     {out['module']['fixture']} = {out['flag']}  "
              f"({out['seconds']['flag']} s)")
        print("equal" if out["equal"] else "NOT equal")
    return 0 if out["equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
