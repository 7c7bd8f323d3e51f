"""The four workloads: seeded decks of cross-validation ops.

A deck is a fixed mix of op families whose inputs are drawn from
random.Random(f"{workload}:{seed}:{index}"), so one seed gives one sequence
of decks.  Every op computes a quantity along the library route(s) and
checks it against a second route with a checker from checks.py.  Deck
generation calls the library only to build inputs and expected values; it
runs between ops and is never timed.

The library is reached through the package and module namespaces at call
time (``pg.tree_amplitude``, ``pg.kinematics.cyclic_relabel``), so that a
tracer that patches those namespaces sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

import posgeom as pg
import posgeom.cli  # noqa: F401  (binds pg.cli)

from checks import (
    Verdict,
    check_dirichlet,
    check_exit,
    check_homogeneity,
    check_scattering,
    check_string_limit,
    exact_equal,
    rel_close,
    CHY_REL_TOL,
)


@dataclass(frozen=True)
class Op:
    family: str
    run: Callable[[], Verdict]


@dataclass(frozen=True)
class DefectProbe:
    """A documented defect of the library, run on a fixed input that shows it.

    The workloads' inputs avoid the known defects, so that every op of a
    timed phase is expected to pass; the probes keep the defects measured.
    A probe reproduces its defect when its check fails (or raises).
    """

    defect: str
    run: Callable[[], Verdict]


# At n = 5 the closed-form roots are polished and then kept only if the raw
# gradient falls below an absolute tolerance; on some kinematics one root
# cannot get there in double precision and solve_scattering raises
# WrongCountError.  Measured on sample_abhy_kinematics seeds 0-2999: 63
# failures at tol 1e-12 (the CLI default), the first at seed 1, and 7 at
# 1e-10, the first at seed 10.
N5_RESIDUAL_DEFECT = "solve_scattering drops an n=5 root above the absolute residual tolerance"
N5_DEFECT_SEED = {1e-10: 10, 1e-12: 1}


def _rng(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


class Workload:
    """A seeded sequence of decks; deck(i) is the same for the same seed."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.redrawn = 0  # drawn inputs replaced because they hit a known defect

    def deck(self, index) -> list[Op]:
        raise NotImplementedError

    def defect_probes(self) -> list[DefectProbe]:
        return []

    def abhy_kinematics(self, rng: random.Random, tol: float):
        """Five-point ABHY kinematics on which solve_scattering at tol keeps
        both roots: a draw that hits N5_RESIDUAL_DEFECT is drawn again and
        counted in self.redrawn.  The n=5 solve costs a few ms, untimed."""
        while True:
            k = pg.sample_abhy_kinematics(rng.randrange(10**6))
            try:
                pg.solve_scattering(k, tol=tol)
                return k
            except pg.WrongCountError:
                self.redrawn += 1

    def warm_up(self) -> list[Op]:
        """Ops run before timing starts, on inputs the timed decks do not use."""
        return self.deck("warm-up")

    def smoke(self) -> list[Op]:
        """A short deck with every cheap family, for the benchmark's own tests."""
        return self.deck("smoke")

    def close(self):
        pass


def _points(roots) -> tuple[list, list]:
    return [p.coords for p in roots], [p.residual for p in roots]


# --------------------------------------------------------------------------
# exact: rational cross-checks
# --------------------------------------------------------------------------


N5_TOL = 1e-10  # solver tolerance of the exact workload's n=5 solves


def three_way_n5(k) -> Op:
    """tree sum = pentagon dual volume = CHY sum at five points."""

    def run():
        tree = pg.tree_amplitude(k)
        pentagon = pg.abhy_pentagon(*pg.abhy_constants(k))
        dual = pg.dual_volume_oracle(pentagon, (k.entry(2, 3), k.entry(3, 4)))
        verdict = exact_equal("tree vs pentagon dual volume", tree, dual)
        if not verdict.ok:
            return verdict
        roots = pg.solve_scattering(k, tol=N5_TOL)
        coords, residuals = _points(roots)
        return check_scattering(k.s, coords, residuals, pg.chy_amplitude(k, roots), tree, 2)

    return Op("three_way_n5", run)


def moment_polygon(rng: random.Random, nvert: int) -> Op:
    """Fan triangulation = vertex sum, and fan value = dual-volume oracle."""
    nodes = sorted(rng.sample(range(-72, 72), nvert))
    vertices = [(F(t, 12), F(t, 12) ** 2) for t in nodes]
    weights = [rng.randint(1, 9) for _ in vertices]
    total = sum(weights)
    x0 = tuple(sum(w * v[i] for w, v in zip(weights, vertices)) / total for i in range(2))

    def run():
        poly = pg.Polytope.from_vertices(vertices)
        fan = pg.canonical_function(poly)
        if not pg.rf_equal(fan, pg.canonical_vertex_sum(poly)):
            return Verdict(False, "fan triangulation differs from the vertex sum")
        value = fan.evaluate({"x1": x0[0], "x2": x0[1]})
        return exact_equal("fan value vs dual volume", value, pg.dual_volume_oracle(poly, x0))

    return Op(f"polygon_{nvert}", run)


def member_line(z, line) -> Op:
    def run():
        found = (pg.membership(line, z).member, pg.stabs(line, z))
        return exact_equal("member line (membership, stabs)", found, (True, True))

    return Op("member_line", run)


def centroid_line(z) -> Op:
    """Fails membership with opposite (12)/(34) brackets, yet stabs."""
    line = pg.centroid_stab_line(z)

    def run():
        br = pg.brackets(*line, z)
        found = (pg.membership(line, z).member, br[(1, 2)] * br[(3, 4)] < 0, pg.stabs(line, z))
        return exact_equal("centroid line (membership, opposite brackets, stabs)", found, (False, True, True))

    return Op("centroid_line", run)


def signature_identities(rng: random.Random, dim: int) -> Op:
    """Chen, refinement, reversal and shuffle identities at depth 4."""
    draw = lambda: tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))  # noqa: E731
    head = [draw() for _ in range(4)]
    tail = [draw() for _ in range(3)]
    segment = rng.randrange(3)

    def run():
        p = pg.PiecewiseLinearPath.from_points(head)
        q = pg.PiecewiseLinearPath.from_points(tail)
        sp = pg.signature(p, 4)
        checks = {
            "Chen": pg.signature(p.concatenate(q), 4) == sp.product(pg.signature(q, 4)),
            "refinement": pg.signature(p.refined(segment), 4) == sp,
            "reversal": pg.signature(p.reversed(), 4).product(sp) == pg.identity_stack(dim, 4),
        }
        letters = range(1, dim + 1)
        words = [(a,) for a in letters] + [(a, b) for a in letters for b in letters]
        checks["shuffle"] = all(
            pg.shuffle_check(sp, w1, w2) for w1 in words for w2 in words if len(w1) + len(w2) <= 4
        )
        broken = [name for name, held in checks.items() if not held]
        return Verdict(not broken, f"{', '.join(broken)} identity fails" if broken else "")

    return Op(f"signature_dim{dim}", run)


def tree_cyclic(k, shift: int) -> Op:
    """The tree amplitude is invariant under cyclic relabeling (exact)."""

    def run():
        relabeled = pg.kinematics.cyclic_relabel(k, shift)
        return exact_equal("cyclic relabel", pg.tree_amplitude(k), pg.tree_amplitude(relabeled))

    return Op(f"tree_n{k.n}", run)


class ExactWorkload(Workload):
    name = "exact"

    def deck(self, index) -> list[Op]:
        rng = _rng(self.name, self.seed, index)
        z = pg.twisted_cubic_z([F(t, 4) for t in sorted(rng.sample(range(1, 40), 5))])
        ops = [three_way_n5(self.abhy_kinematics(rng, N5_TOL)) for _ in range(2)]
        ops += [moment_polygon(rng, nvert) for nvert in (4, 5, 6, 7)]
        ops += [member_line(z, pg.random_member(z, rng.randrange(10**6))) for _ in range(2)]
        ops.append(centroid_line(z))
        ops += [signature_identities(rng, dim) for dim in (2, 3)]
        for n in (8, 9, 10):
            ops.append(tree_cyclic(pg.sample_kinematics(n, rng.randrange(10**6)), rng.randrange(1, n)))
        rng.shuffle(ops)
        return ops

    def defect_probes(self) -> list[DefectProbe]:
        k = pg.sample_abhy_kinematics(N5_DEFECT_SEED[N5_TOL])
        return [DefectProbe(f"{N5_RESIDUAL_DEFECT} (tol {N5_TOL:g})", three_way_n5(k).run)]


# --------------------------------------------------------------------------
# scattering: six-point critical points and the CHY sum
# --------------------------------------------------------------------------


def scattering_op(k, positive: bool) -> Op:
    def run():
        roots = pg.solve_scattering(k, tol=1e-10)
        coords, residuals = _points(roots)
        total = pg.chy_amplitude(k, roots)
        return check_scattering(k.s, coords, residuals, total, pg.tree_amplitude(k), 6)

    return Op("positive_n6" if positive else "generic_n6", run)


# solve_scattering misses a critical point on a few six-point kinematics
# in a thousand (2 of 211 positive and 1 of 674 generic random seeds; 1 of
# seeds 0-508 of each kind), after 4 to 6 s each.  The workload draws
# sample_kinematics(6, seed, positive) seeds from range(N6_POOL_SIZE), which
# perfbench/scan_n6.py scanned: the op passed on every (seed, positive) pair
# but those in N6_FAILING.  The probe is a failing pair outside the pool.
N6_DEFECT = "solve_scattering misses a six-point critical point (WrongCountError)"
N6_POOL_SIZE = 400
N6_FAILING = {(359, True)}  # 5 of 6 roots, after 5.0 s
N6_DEFECT_SEED = (471, False)  # 5 of 6 roots, after 4.4 s


class ScatteringWorkload(Workload):
    name = "scattering"

    def deck(self, index) -> list[Op]:
        rng = _rng(self.name, self.seed, index)
        ops = []
        for positive in (False, False, True, True):
            seed = rng.randrange(N6_POOL_SIZE)
            while (seed, positive) in N6_FAILING:
                self.redrawn += 1
                seed = rng.randrange(N6_POOL_SIZE)
            ops.append(scattering_op(pg.sample_kinematics(6, seed, positive=positive), positive))
        rng.shuffle(ops)
        return ops

    def warm_up(self) -> list[Op]:
        # a kinematics point outside the pool
        return [scattering_op(pg.sample_kinematics(6, N6_POOL_SIZE), False)]

    def defect_probes(self) -> list[DefectProbe]:
        seed, positive = N6_DEFECT_SEED
        return [DefectProbe(N6_DEFECT, scattering_op(pg.sample_kinematics(6, seed, positive=positive), positive).run)]


# --------------------------------------------------------------------------
# euler: Euler integrals by nested adaptive quadrature
# --------------------------------------------------------------------------

# (nu1, nu2, s) of the Dirichlet grid in three cost tiers, measured at
# c near 1: under 80 ms, 80 to 220 ms, and 0.3 to 1.6 s.  The tiers cover nu
# from 1/2 to 2 and margins s - nu1 - nu2 from 2 down to 1/4.  With the
# heavy ops of the deck above the slow tier, the deck's median op falls
# inside the middle tier, so op_ms_p50 is the median of ten like-cost
# integrals rather than a jump between two families.
DIRICHLET_FAST = (
    (F(1), F(1), F(3)),
    (F(1), F(2), F(4)),
    (F(1), F(5, 4), F(13, 4)),
    (F(1), F(3, 2), F(7, 2)),
    (F(1, 2), F(3, 2), F(3)),
    (F(1), F(1), F(4)),
    (F(3, 4), F(3, 4), F(7, 2)),
    (F(1), F(3, 2), F(9, 2)),
    (F(1, 2), F(1), F(7, 2)),
)
DIRICHLET_MID = (
    (F(1, 2), F(1, 2), F(2)),
    (F(1, 2), F(3, 4), F(9, 4)),
    (F(1, 2), F(1), F(5, 2)),
    (F(1, 2), F(5, 4), F(11, 4)),
    (F(3, 4), F(3, 4), F(5, 2)),
    (F(3, 4), F(1), F(11, 4)),
    (F(3, 4), F(5, 4), F(3)),
    (F(1, 2), F(1, 2), F(3)),
    (F(1), F(2), F(5)),
    (F(1, 2), F(1, 2), F(3, 2)),
)
DIRICHLET_SLOW = (
    (F(2), F(1), F(4)),
    (F(3, 2), F(1), F(7, 2)),
    (F(1), F(1), F(5, 2)),
    (F(3, 4), F(5, 4), F(5, 2)),
    (F(1, 2), F(1, 2), F(5, 4)),
)

# Near-divergent Dirichlet integrals that miss EULER_REL_TOL at the default
# rel_tol 1e-8 (relative errors 6.4e-4 and 1.1e-5 at c = (1, 1, 1)): the
# workload's defect probes, kept out of its grid.
DIRICHLET_DEFECT = "near-divergent Dirichlet integral misses 1e-6 relative at rel_tol 1e-8"
DIRICHLET_DEFECTS = (
    (F(7, 4), F(7, 4), F(15, 4)),
    (F(1), F(1), F(9, 4)),
)

# Planar variables X13, X14, X24, X25, X35 of two five-point kinematics drawn
# like the acceptance suite's string-limit criterion (X in [1/2, 5/2]).  The
# first passes the 1% gate with room (1.3e-3) and is jittered by the seed;
# the second misses it (1.5e-2), a defect probe: with the default epsilons
# (0.2, 0.1, 0.05) the extrapolation error grows with the planar variables.
STRING_LIMIT_DEFECT_TEXT = "string-limit extrapolation misses 1% at large planar variables"
STRING_LIMIT_BASE = (F(7, 12), F(2, 3), F(2, 3), F(17, 12), F(11, 12))
# The seed moves each planar variable of the first by -1/96, 0 or 1/96.
# Moves of 1/24 changed the integrand evaluations by up to 40% from one
# seed to the next, and this op is a quarter of the deck's time; moves of
# 1/96 change them by 12%.
STRING_LIMIT_JITTER = 96
STRING_LIMIT_DEFECT = (F(25, 12), F(7, 6), F(29, 12), F(17, 12), F(7, 3))


def _coefficients(rng: random.Random, count: int) -> list[F]:
    return [F(rng.randint(10, 14), 12) for _ in range(count)]


def _five_point(planar_values):
    diagonals = pg.polygon_diagonals(5)
    return pg.kinematics_from_planar(5, dict(zip(diagonals, planar_values)))


def dirichlet_op(nu1: F, nu2: F, s: F, c) -> Op:
    """x^nu1 y^nu2 (c1 x + c2 y + c3)^(-s) against its Gamma-function closed form."""
    form = pg.LinearForm(((1, 0), (0, 1), (0, 0)), (1, 2, 3), -s)
    integrand = pg.EulerIntegrand(2, (form,), (nu1, nu2))
    coefficients = [float(v) for v in c]

    def run():
        value = pg.evaluate_euler(integrand, coefficients)
        return check_dirichlet(value, float(nu1), float(nu2), float(s), coefficients)

    return Op(f"dirichlet_margin_{s - nu1 - nu2}", run)


def homogeneity_op(c, lam: float, eps: float) -> Op:
    """phi(lam c1, lam c2, lam c3, c4, ...) = phi(c) / lam for the blueprint."""
    integrand = pg.blueprint_integrand()
    scaled = [lam * v for v in c[:3]] + list(c[3:])
    params = {"eps": eps}

    def run():
        phi = pg.evaluate_euler(integrand, c, params)
        return check_homogeneity(phi, pg.evaluate_euler(integrand, scaled, params), lam, -1)

    return Op("blueprint_homogeneity", run)


def string_limit_op(k) -> Op:
    def run():
        return check_string_limit(pg.string_limit(k).extrapolated, pg.tree_amplitude(k))

    return Op("string_limit", run)


class EulerWorkload(Workload):
    name = "euler"

    def deck(self, index) -> list[Op]:
        rng = _rng(self.name, self.seed, index)
        grid = DIRICHLET_FAST + DIRICHLET_MID + DIRICHLET_SLOW
        ops = [dirichlet_op(*point, _coefficients(rng, 3)) for point in grid]
        ops.append(homogeneity_op([float(c) for c in _coefficients(rng, 7)], float(F(rng.randint(18, 36), 12)), 0.25))
        jittered = [x + F(rng.randint(-1, 1), STRING_LIMIT_JITTER) for x in STRING_LIMIT_BASE]
        ops.append(string_limit_op(_five_point(jittered)))
        rng.shuffle(ops)
        return ops

    def defect_probes(self) -> list[DefectProbe]:
        probes = [
            DefectProbe(f"{DIRICHLET_DEFECT}: nu=({nu1}, {nu2}), s={s}", dirichlet_op(nu1, nu2, s, (1, 1, 1)).run)
            for nu1, nu2, s in DIRICHLET_DEFECTS
        ]
        probes.append(DefectProbe(STRING_LIMIT_DEFECT_TEXT, string_limit_op(_five_point(STRING_LIMIT_DEFECT)).run))
        return probes

    def warm_up(self) -> list[Op]:
        return self.smoke()[:1]

    def smoke(self) -> list[Op]:
        """The fast tier of the Dirichlet grid."""
        rng = _rng(self.name, self.seed, "smoke")
        return [dirichlet_op(*point, _coefficients(rng, 3)) for point in DIRICHLET_FAST]


# --------------------------------------------------------------------------
# cli: in-process posgeom.cli.main over small fixture files
# --------------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """posgeom.cli.main(argv) with stdout captured; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = pg.cli.main(argv)
        except SystemExit as exc:  # argparse rejects malformed command lines
            code = exc.code
    return code, out.getvalue()


def cli_op(
    family: str,
    argv: list[str],
    expected: int,
    check: Callable[[dict], Verdict] | None = None,
) -> Op:
    """One CLI request, its exit code and, on success, its result."""

    def run():
        code, stdout = run_cli(argv)
        figures = {f"cli.exit_{code}": 1, "cli.out_bytes": len(stdout)}
        verdict = check_exit(code, expected, stdout)
        if verdict.ok and check is not None:
            verdict = check(json.loads(stdout)["result"])
        return Verdict(verdict.ok, verdict.detail, {**verdict.figures, **figures})

    return Op(family, run)


def _write(path: Path, payload) -> str:
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def _frac_rows(rows) -> list:
    return [[str(v) for v in row] for row in rows]


CLI_TOL = 1e-12  # the CLI's default --tol


class CliWorkload(Workload):
    name = "cli"

    def deck(self, index) -> list[Op]:
        rng = _rng(self.name, self.seed, index)
        folder = self.workdir / f"deck-{index}"
        folder.mkdir(parents=True, exist_ok=True)
        fixture = lambda name, payload: _write(folder / name, payload)  # noqa: E731

        k5 = self.abhy_kinematics(rng, CLI_TOL)
        tree5 = pg.tree_amplitude(k5)
        pentagon = pg.abhy_pentagon(*pg.abhy_constants(k5))
        dual5 = pg.dual_volume_oracle(pentagon, (k5.entry(2, 3), k5.entry(3, 4)))
        kin5 = fixture("k5.json", k5.to_dict())
        k6 = pg.sample_kinematics(6, rng.randrange(10**6))
        shift = rng.randrange(1, 6)
        tree6 = pg.tree_amplitude(pg.kinematics.cyclic_relabel(k6, shift))
        kin6 = fixture("k6.json", k6.to_dict())

        nodes = sorted(rng.sample(range(-72, 72), rng.choice([4, 5, 6])))
        polygon = pg.Polytope.from_vertices([(F(t, 12), F(t, 12) ** 2) for t in nodes])
        adjoint = str(pg.adjoint(polygon))
        poly_file = fixture("polygon.json", {"V": _frac_rows(polygon.vertices)})

        z = pg.twisted_cubic_z([F(t, 4) for t in sorted(rng.sample(range(1, 40), 5))])
        z_file = fixture("z.json", {"rows": _frac_rows(z.rows)})
        a, b = pg.random_member(z, rng.randrange(10**6))
        member_file = fixture("member.json", {"A": [str(v) for v in a], "B": [str(v) for v in b]})
        a, b = pg.centroid_stab_line(z)
        centroid_file = fixture("centroid.json", {"A": [str(v) for v in a], "B": [str(v) for v in b]})
        special = [pg.special_line(i, z).p for i in range(1, 6)]

        exps = [F(-rng.randint(1, 8), 4) for _ in range(3)]
        integrand = {
            "nvars": 2,
            "forms": [
                {"monomials": [[1, 0], [0, 1], [0, 0]], "coefficients": [1, 2, 3], "exponent": str(exps[0])},
                {"monomials": [[1, 0], [0, 0]], "coefficients": [4, 5], "exponent": str(exps[1])},
                {"monomials": [[0, 1], [0, 0]], "coefficients": [6, 7], "exponent": str(exps[2])},
            ],
            "prefactor": [{"eps": "1", "const": "1"}, {"eps": "1", "const": "1"}],
        }
        gkz_file = fixture("integrand.json", integrand)
        operators = pg.gkz_operators(
            pg.EulerIntegrand(
                2,
                tuple(
                    pg.LinearForm(tuple(map(tuple, f["monomials"])), tuple(f["coefficients"]), F(f["exponent"]))
                    for f in integrand["forms"]
                ),
                (pg.Polynomial.variable("eps") + 1,) * 2,
            )
        )
        expected_operators = ([str(op) for op in operators["euler"]], [str(op) for op in operators["toric"]])

        dim = rng.choice([2, 3])
        path = [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)] for _ in range(4)]
        path_file = fixture("path.json", {"points": _frac_rows(path)})
        increment = [path[-1][i] - path[0][i] for i in range(dim)]

        # requests that must fail: exit 2 on malformed input, 3 on poles and divergence
        planar = {d: F(rng.randint(1, 60), 12) for d in pg.polygon_diagonals(5)}
        pole = fixture("pole.json", pg.kinematics_from_planar(5, {**planar, (1, 3): F(0)}).to_dict())
        negative = fixture("negative.json", pg.kinematics_from_planar(5, {**planar, (2, 4): F(-1)}).to_dict())
        divergent = dict(integrand, prefactor=["-1", "1"])
        divergent_file = fixture("divergent.json", divergent)
        truncated = fixture("truncated.json", json.dumps(k5.to_dict())[: rng.randint(10, 40)])
        bad_shape = fixture("shape.json", {"n": 5, "s": k5.to_dict()["s"][:4]})
        rows = k5.to_dict()["s"]
        rows[0][1] = str(F(rows[0][1]) + 1)
        asymmetric = fixture("asymmetric.json", {"n": 5, "s": rows})
        swapped_z = fixture("swapped_z.json", {"rows": _frac_rows((z.rows[1], z.rows[0], *z.rows[2:]))})

        seed_arg = str(rng.randrange(1000))
        ops = [
            cli_op("sample_kinematics", ["sample-kinematics", "--n", "6", "--seed", seed_arg], 0, _momentum_conserved),
            cli_op("sample_kinematics", ["sample-kinematics", "--abhy", "--seed", seed_arg], 0, _momentum_conserved),
            cli_op("amplitude", ["amplitude", "--kinematics", kin5], 0, _rational("amplitude", dual5)),
            cli_op("amplitude", ["amplitude", "--kinematics", kin6], 0, _rational("amplitude", tree6)),
            cli_op("chy", ["chy", "--kinematics", kin5], 0, _chy_n5(tree5)),
            cli_op(
                "crosscheck",
                ["crosscheck", "--kinematics", kin5],
                0,
                _flags("tree_equals_dual_volume", "chy_within_tolerance"),
            ),
            cli_op("canonical_form", ["canonical-form", "--polytope", poly_file], 0, _text("adjoint", adjoint)),
            cli_op("abhy", ["abhy", *_abhy_args(k5)], 0, _vertex_count(5)),
            cli_op("dihedral", ["dihedral", "--check", "u-equations"], 0, _flags("all_passed")),
            cli_op(
                "dihedral",
                ["dihedral", "--check", "scattering", "--kinematics", kin5],
                0,
                _max_residual(1e-9),
            ),
            cli_op("amplituhedron", ["amplituhedron", "--Z", z_file, "--line", member_file], 0, _flags("member")),
            cli_op("stabs", ["stabs", "--Z", z_file, "--line", centroid_file], 0, _flags("stabs")),
            cli_op("adjoint_gr24", ["adjoint-gr24", "--Z", z_file], 0, _vanishes_on(special)),
            cli_op("gkz", ["gkz", "--integrand", gkz_file], 0, _operators(expected_operators)),
            cli_op("signature", ["signature", "--path", path_file, "--level", "3"], 0, _level_one(increment)),
            cli_op("error_2", ["amplitude", "--kinematics", truncated], 2),
            cli_op("error_2", ["amplitude", "--kinematics", bad_shape], 2),
            cli_op("error_2", ["chy", "--kinematics", asymmetric], 2),
            cli_op("error_2", ["stabs", "--Z", swapped_z, "--line", member_file], 2),
            cli_op("error_2", ["amplitude"], 2),
            cli_op("error_3", ["amplitude", "--kinematics", pole], 3),
            cli_op("error_3", ["crosscheck", "--kinematics", pole], 3),
            cli_op("error_3", ["string-limit", "--kinematics", negative], 3),
            cli_op("error_3", ["gkz", "--integrand", divergent_file, "--evaluate", "1,1,1,1,1,1,1", "--params", "eps=1/4"], 3),
        ]
        rng.shuffle(ops)
        return ops

    def defect_probes(self) -> list[DefectProbe]:
        k5 = pg.sample_abhy_kinematics(N5_DEFECT_SEED[CLI_TOL])
        self.workdir.mkdir(parents=True, exist_ok=True)
        kin5 = _write(self.workdir / "probe-k5.json", k5.to_dict())
        op = cli_op("chy", ["chy", "--kinematics", kin5], 0, _chy_n5(pg.tree_amplitude(k5)))
        return [DefectProbe(f"{N5_RESIDUAL_DEFECT} (CLI default tol {CLI_TOL:g}, exit 3)", op.run)]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _abhy_args(k) -> list[str]:
    c13, c14, c24 = pg.abhy_constants(k)
    return ["--s13", str(c13), "--s14", str(c14), "--s24", str(c24)]


def _momentum_conserved(result: dict) -> Verdict:
    s = [[F(v) for v in row] for row in result["s"]]
    n = result["n"]
    ok = len(s) == n and all(sum(row) == 0 and s[i][i] == 0 for i, row in enumerate(s))
    ok = ok and all(s[i][j] == s[j][i] for i in range(n) for j in range(n))
    return Verdict(ok, "" if ok else "sampled kinematics violate momentum conservation")


def _rational(key: str, expected: F) -> Callable[[dict], Verdict]:
    return lambda result: exact_equal(key, F(result[key]), expected)


def _text(key: str, expected: str) -> Callable[[dict], Verdict]:
    return lambda result: exact_equal(key, result[key], expected)


def _flags(*keys: str) -> Callable[[dict], Verdict]:
    def check(result):
        false = [key for key in keys if result[key] is not True]
        return Verdict(not false, f"{', '.join(false)} not true" if false else "")

    return check


def _chy_n5(tree: F) -> Callable[[dict], Verdict]:
    def check(result):
        if len(result["critical_points"]) != 2:
            return Verdict(False, f"{len(result['critical_points'])} critical points, expected 2")
        re, im = result["chy_sum"]
        return rel_close("CLI chy sum", complex(re, im), float(tree), CHY_REL_TOL, "chy.max_rel_dev")

    return check


def _vertex_count(count: int) -> Callable[[dict], Verdict]:
    return lambda result: exact_equal("pentagon vertex count", len(result["polytope"]["V"]), count)


def _max_residual(tol: float) -> Callable[[dict], Verdict]:
    return lambda result: Verdict(result["max_residual"] < tol, f"residual {result['max_residual']:.2e}")


def _vanishes_on(lines) -> Callable[[dict], Verdict]:
    def check(result):
        values = [sum(c * p for c, p in zip(result["coefficients"], line)) for line in lines]
        return exact_equal("adjoint form on the special lines", values, [0] * len(lines))

    return check


def _operators(expected) -> Callable[[dict], Verdict]:
    return lambda result: exact_equal(
        "annihilating operators", (result["euler_operators"], result["toric_operators"]), tuple(expected)
    )


def _level_one(increment) -> Callable[[dict], Verdict]:
    return lambda result: exact_equal(
        "level-one signature", [F(v) for v in result["levels"][1]], increment
    )


WORKLOADS = {cls.name: cls for cls in (ExactWorkload, ScatteringWorkload, EulerWorkload, CliWorkload)}
