"""The benchmark workloads: the paper's worked examples and two scale probes.

Each workload has a `setup(mods, seed)` that builds its inputs (fixtures,
modules, tableaux, seeded samples) and a `run(mods, st, gate)` that makes
one pass, sending every operation through the gate with its check.  Library
functions are looked up on the module objects in `mods` at call time, so the
tracer's wrappers see every call.  Values the checks pin from the library as
it was when the benchmark was written live in `rationale.json`.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
RATIONALE = json.loads((HERE / "rationale.json").read_text())
PINNED = {name: c["value"] for name, c in RATIONALE["checks"].items() if "value" in c}


# -- a4_example -------------------------------------------------------------------

A4_TAU = [[1, 2], [3, 4], [5]]
A4_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)   # chain counts, interpolated at degree <= 6


def setup_a4(mods, seed):
    fixtures = mods.fixtures
    return {
        "module": mods.preproj.load_module_fixture(str(fixtures / "a4_module.json")),
        "plucker": json.loads((fixtures / "a4_plucker.json").read_text()),
        "tau": mods.orbital.Tableau(A4_TAU),
    }


def _chain_euler_histogram(mods, module, lattices, m, n):
    """Section weights from the chain varieties: chi(chains) bucketed by weight."""
    pp, roota = mods.preproj, mods.roota
    if not lattices:
        lattices.update((q, pp.SubmoduleLattice(module.reduce_mod(q))) for q in A4_PRIMES)
    samples: dict = {}
    for q, lat in lattices.items():
        for total, count in lat.chain_counts_by_total(n).items():
            samples.setdefault(total, []).append((q, count))
    hist: dict = {}
    for total, pts in samples.items():
        chi = pp.euler_interpolate(pts, len(A4_PRIMES) - 2)
        if chi:
            w = roota.Weight.from_alpha(m, total)
            hist[w] = hist.get(w, 0) + chi
    return hist


def run_a4(mods, st, gate):
    pp, orb_mod = mods.preproj, mods.orbital
    tau = st["tau"]
    mv = gate.op("a4.mv", lambda: _orbital_and_dbar(orb_mod, tau), route="mv")
    gate.op("a4.flag", lambda: pp.flag_function(st["module"]), route="flag",
            check=lambda flag: flag == mv[1])
    chart = gate.op("a4.plucker_chart",
                    lambda: orb_mod.plucker_chart(tau, mv[0], fixture=st["plucker"]),
                    check=lambda ch: len(ch.variables) == PINNED["a4.plucker_chart.variables"])
    lattices: dict = {}    # filled by the first sections check of the pass
    for n, total in zip((1, 2, 3), PINNED["a4.sections.totals"]):
        gate.op(f"a4.sections.n{n}",
                lambda n=n: orb_mod.plucker_sections(tau, n, chart=chart),
                check=lambda hist, n=n, total=total: (
                    sum(hist.values()) == total
                    and hist == _chain_euler_histogram(mods, st["module"], lattices, tau.m, n)))


def _orbital_and_dbar(orb_mod, tau):
    orb = orb_mod.orbital_ideal(tau)
    return orb, orb_mod.dbar_mv(orb)


# -- a5_example -------------------------------------------------------------------

A5_TAU = [[1, 1, 1, 3], [2, 2, 5], [3, 4], [4, 6]]
A5_PARAMS = (2, 3)
A5_PRIMES = (5, 7, 11, 13)      # the primes flag_function_generic picks for a = 2, 3
A5_ASSEMBLY_TERMS = 35          # first sequences, in sorted order, summed by the direct route
# alpha values with every coordinate positive: no sum of simple roots vanishes there
A5_POINTS = [(101, 211, 307, 401, 503), (997, 13, 389, 71, 157), (5, 640, 33, 877, 29)]


def setup_a5(mods, seed):
    pp, fixture = mods.preproj, str(mods.fixtures / "a5_module.json")
    names = mods.roota.alpha_names(6)
    return {
        "modules": {a: pp.load_module_fixture(fixture, params={"a": a}) for a in A5_PARAMS},
        "a4_module": pp.load_module_fixture(str(mods.fixtures / "a4_module.json")),
        "certs": {a: pp.load_certificate(fixture, params={"a": a}) for a in A5_PARAMS},
        "lusztig": tuple(json.loads(Path(fixture).read_text())["expected_lusztig"]),
        "tau": mods.orbital.Tableau(A5_TAU),
        "points": [dict(zip(names, map(Fraction, pt))) for pt in A5_POINTS],
    }


def _flag_at(mods, chi, points):
    """The flag sum evaluated term by term at each point: sum of chi_i * Dbar_i(point)."""
    terms = [(c, mods.measures.dbar_i(6, seq)) for seq, c in chi.items()]
    return [sum(c * d.evaluate(pt) for c, d in terms) for pt in points]


def _chi_shape_ok(chi):
    ones = sum(1 for v in chi.values() if v == 1)
    twos = sum(1 for v in chi.values() if v == 2)
    return [len(chi), ones, twos] == PINNED["a5.flag_data.size_ones_twos"]


def run_a5(mods, st, gate):
    pp, orb_mod = mods.preproj, mods.orbital
    chi = gate.op("a5.flag_data.a2", route="flag", check=_chi_shape_ok,
                  compute=lambda: pp.flag_data(st["modules"][2], primes=A5_PRIMES))
    gate.op("a5.flag_data.a3", route="flag", check=lambda c3: c3 == chi,
            compute=lambda: pp.flag_data(st["modules"][3], primes=A5_PRIMES))
    for a in A5_PARAMS:
        # known defect: the default primes include 2 and 3, where a reduces badly
        gate.op(f"a5.flag_data.default_primes.a{a}", check=lambda c: c == chi,
                known_error=RATIONALE["known_defects"]["a5.flag_data.default_primes"]["error"],
                compute=lambda a=a: pp.flag_data(st["modules"][a]))
        gate.op(f"a5.hn_verify.a{a}", check=lambda v: tuple(v) == st["lusztig"],
                compute=lambda a=a: pp.hn_verify(st["modules"][a], st["certs"][a]))
    gate.op("a5.mv", route="mv",
            compute=lambda: _orbital_and_dbar(orb_mod, st["tau"])[1],
            check=lambda dbar: [dbar.evaluate(pt) for pt in st["points"]]
            == _flag_at(mods, chi, st["points"]))
    # The full A5 sum (178 terms) is assembled by grid interpolation, which takes minutes;
    # a pass runs that route on the A4 module, and the direct route on a prefix of chi.
    gate.op("a5.flag_interpolated", route="flag",
            compute=lambda: pp.flag_function(st["a4_module"], method="interpolate"),
            check=lambda r: r == pp.flag_function(st["a4_module"], method="direct"))
    part = {seq: chi[seq] for seq in sorted(chi)[:A5_ASSEMBLY_TERMS]} if chi else None
    gate.op("a5.flag_direct_prefix", route="flag",
            compute=lambda: pp.flag_function_from_chi(6, part, method="direct"),
            check=lambda r: [r.evaluate(pt) for pt in st["points"]]
            == _flag_at(mods, part, st["points"]))


# -- measure_rank3 ----------------------------------------------------------------

M3_M = 4
M3_LETTERS = (1, 2, 3)
M3_ALGEBRA_PAIRS = ((3, "n12*n23 + n13", "n13"), (3, "n12", "n23"),
                    (4, "n12*n34", "n23"), (4, "n13", "n24"))


def _regular_point(rng, mods, m, height=6):
    while True:
        vals = [Fraction(rng.randint(-30, 30)) for _ in range(m - 1)]
        vals.append(-sum(vals))
        if len(set(vals)) == m and mods.centralizer.is_admissible(vals, height):
            return tuple(vals)


def setup_measure_rank3(mods, seed):
    cz, roota = mods.centralizer, mods.roota
    words = [w for n in range(4) for w in itertools.product(M3_LETTERS, repeat=n)]
    pairs = [(j, k) for j in words for k in words if 0 < len(j) + len(k) <= 4]
    rng = random.Random(seed)
    monomials = []
    for m in (2, 3, 4):
        positions = cz.entry_positions(m)
        points = [_regular_point(rng, mods, m) for _ in range(3)]
        for expo in itertools.product(range(3), repeat=len(positions)):
            height = sum(e * roota.Weight.root(m, i, j).height()
                         for e, (i, j) in zip(expo, positions))
            if 0 < height <= 4:
                text = "*".join(f"n{i}{j}^{e}" for e, (i, j) in zip(expo, positions) if e)
                monomials.append((cz.CoordFunction.parse(m, text), points))
    algebra = [(cz.CoordFunction.parse(m, f), cz.CoordFunction.parse(m, g))
               for m, f, g in M3_ALGEBRA_PAIRS]
    return {"pairs": pairs, "monomials": monomials, "algebra": algebra}


def run_measure_rank3(mods, st, gate):
    ms, cz, roota = mods.measures, mods.centralizer, mods.roota

    def shuffle_sum(j, k):
        rhs = ms.ExpSum(M3_M, {})
        for s in roota.shuffles(j, k):
            rhs = rhs + ms.ft_i(M3_M, s)
        return rhs

    for j, k in st["pairs"]:
        gate.op(f"measure.ft_shuffle.{j}.{k}",
                lambda j=j, k=k: ms.expsum_mul(ms.ft_i(M3_M, j), ms.ft_i(M3_M, k)),
                check=lambda lhs, j=j, k=k: lhs == shuffle_sum(j, k))
    for f, points in st["monomials"]:
        gate.op(f"measure.dbar.{f!r}", lambda f=f: cz.dbar_of_function(f),
                check=lambda r, f=f, points=points: all(
                    cz.dbar_direct(f, x) == cz.eval_ratfunc_at_x(r, x) for x in points))
    for f, g in st["algebra"]:
        gate.op(f"measure.algebra_map.{f!r}.{g!r}", lambda f=f, g=g: cz.dbar_of_function(f * g),
                check=lambda fg, f=f, g=g: fg == cz.dbar_of_function(f) * cz.dbar_of_function(g))


# -- lattice_i62_i64 --------------------------------------------------------------

LAT_QS = (2, 3, 5)
LAT_SAMPLES = 12    # sequences cross-checked by peeling, at each q


def setup_lattice(mods, seed):
    pp = mods.preproj
    module = pp.injective_module(6, 2).direct_sum(pp.injective_module(6, 4))
    return {"module": module, "reduced": {q: module.reduce_mod(q) for q in LAT_QS},
            "seed": seed, "samples": []}


def run_lattice(mods, st, gate):
    pp = mods.preproj
    for q in LAT_QS:
        lat = gate.op(f"lattice.q{q}", lambda q=q: pp.SubmoduleLattice(st["reduced"][q]),
                      check=lambda lat, q=q: len(lat.subs) == PINNED["lattice.nodes"][str(q)])
        table = gate.op(f"lattice.compseries.q{q}", lambda lat=lat: lat.composition_series_counts(),
                        check=lambda t, q=q: [len(t), sum(t.values())]
                        == PINNED["lattice.sequences_and_series"][str(q)])
        if table and not st["samples"]:   # drawn once per run; every q has the same sequences
            st["samples"] = random.Random(st["seed"]).sample(sorted(table), LAT_SAMPLES)
        for seq in st["samples"]:
            gate.op(f"lattice.peel.q{q}.{seq}",
                    lambda q=q, seq=seq: pp.count_points(st["module"], ("compseries", seq), q),
                    check=lambda c, seq=seq: c == table[seq])
        del lat, table


WORKLOADS = {
    "a4_example": (setup_a4, run_a4),
    "a5_example": (setup_a5, run_a5),
    "measure_rank3": (setup_measure_rank3, run_measure_rank3),
    "lattice_i62_i64": (setup_lattice, run_lattice),
}
