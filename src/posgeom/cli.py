"""Command-line entry point: every capability behind one executable with
JSON input and output.

Results go to stdout as a single JSON document with sorted keys, so
identical inputs and seed produce byte-identical output; wall time is
reported on stderr to keep it that way.  Exit codes: 0 success, 2 input
validation, 3 numerical failure (wrong root count, divergence, pole), 4
internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from fractions import Fraction

from . import __version__
from .chy import WrongCountError, chy_amplitude, solve_scattering
from .dihedral import dihedral_scattering_residual, verify_u_equations
from .exact import PoleError, Polynomial
from .gkz import (
    DivergentIntegralError,
    EulerIntegrand,
    LinearForm,
    evaluate_euler,
    gkz_operators,
    string_limit,
)
from .grassmann import PlueckerLine, ZMatrix, adjoint_interpolation, membership, stabs
from .kinematics import (
    KinematicData,
    abhy_constants,
    planar_variables,
    sample_abhy_kinematics,
    sample_kinematics,
)
from .polytope import Polytope, abhy_pentagon, canonical_function, canonical_parts
from .quadrature import QuadratureError
from .signature import PiecewiseLinearPath, signature
from .trees import enumerate_triangulations, tree_amplitude


class ValidationError(ValueError):
    pass


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text} is beyond the float range")
    return x


def _load_json(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(raw.decode("utf-8"), parse_float=_finite_float, parse_constant=_reject_constant)
    except (UnicodeDecodeError, ValueError) as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and set(data) == {"manifest", "result"}:
        data = data["result"]  # accept documents produced by this tool
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return data, hashlib.sha256(raw).hexdigest()


def _fraction(value, where: str) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{where}: {value!r} is not a rational") from exc


def _float(value, where: str) -> float:
    """A rational argument as a finite float."""
    try:
        x = float(_fraction(value, where))
    except OverflowError as exc:
        raise ValidationError(f"{where}: {value!r} is too large for a float") from exc
    if not math.isfinite(x):
        raise ValidationError(f"{where}: {value!r} is not finite")
    return x


def _integer(value, where: str) -> int:
    """A JSON integer; floats and booleans are rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where}: {value!r} is not an integer")
    return value


def _vector(value, where: str) -> tuple[Fraction, ...]:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: expected a list of rationals")
    return tuple(_fraction(v, where) for v in value)


def _vectors(value, where: str) -> tuple[tuple[Fraction, ...], ...]:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: expected a list of lists")
    return tuple(_vector(v, where) for v in value)


def _load_kinematics(path: str):
    data, digest = _load_json(path)
    if "n" not in data or "s" not in data:
        raise ValidationError(f"{path}: kinematics JSON needs keys 'n' and 's'")
    n = data["n"]
    if not isinstance(n, int) or n < 4:
        raise ValidationError(f"{path}: 'n' must be an integer >= 4")
    matrix = data["s"]
    if not isinstance(matrix, list) or len(matrix) != n or any(not isinstance(r, list) or len(r) != n for r in matrix):
        raise ValidationError(f"{path}: 's' must be an {n} x {n} matrix")
    rows = tuple(tuple(_fraction(v, f"{path} s[{i}][{j}]") for j, v in enumerate(r)) for i, r in enumerate(matrix))
    try:
        return KinematicData(n, rows), digest
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _load_zmatrix(path: str):
    data, digest = _load_json(path)
    if "rows" not in data:
        raise ValidationError(f"{path}: Z JSON needs key 'rows'")
    rows = _vectors(data["rows"], f"{path} rows")
    try:
        return ZMatrix(rows), digest
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _load_line(path: str):
    data, digest = _load_json(path)
    if "A" in data and "B" in data:
        a = _vector(data["A"], f"{path} A")
        b = _vector(data["B"], f"{path} B")
        if len(a) != 4 or len(b) != 4:
            raise ValidationError(f"{path}: points must have 4 coordinates")
        return (a, b), digest
    if "p" in data:
        p = _vector(data["p"], f"{path} p")
        if len(p) != 6:
            raise ValidationError(f"{path}: 'p' must have 6 entries")
        try:
            return PlueckerLine(p), digest
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    raise ValidationError(f"{path}: line JSON needs either 'A'/'B' or 'p'")


def _load_integrand(path: str):
    data, digest = _load_json(path)
    try:
        nvars = _integer(data["nvars"], "nvars")
        forms = []
        for form in data["forms"]:
            monomials = tuple(tuple(_integer(e, "monomial exponent") for e in m) for m in form["monomials"])
            coefficients = tuple(_integer(i, "coefficient index") for i in form["coefficients"])
            forms.append(LinearForm(monomials, coefficients, _exponent(form["exponent"])))
        prefactor = tuple(_exponent(e) for e in data["prefactor"])
        return EulerIntegrand(nvars, tuple(forms), prefactor), digest
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed integrand: {exc}") from exc


def _exponent(spec):
    if isinstance(spec, dict):
        poly = Polynomial.const(0)
        for name, coeff in spec.items():
            c = _fraction(coeff, f"exponent {name}")
            poly = poly + (c if name == "const" else Polynomial.variable(name) * c)
        return poly
    return _fraction(spec, "exponent")


def _jsonify(value):
    import numpy as np

    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


# --------------------------------------------------------------------------
# subcommand implementations
# --------------------------------------------------------------------------


def cmd_sample_kinematics(args, inputs):
    if args.abhy:
        k = sample_abhy_kinematics(args.seed)
    else:
        k = sample_kinematics(args.n, args.seed, positive=args.positive)
    return k.to_dict()


def cmd_amplitude(args, inputs):
    k, digest = _load_kinematics(args.kinematics)
    inputs["kinematics"] = digest
    value = tree_amplitude(k)
    triangulations = [
        ["{}-{}".format(*d) for d in t.diagonals] for t in enumerate_triangulations(k.n)
    ]
    return {"n": k.n, "triangulations": triangulations, "amplitude": str(value)}


def cmd_chy(args, inputs):
    k, digest = _load_kinematics(args.kinematics)
    inputs["kinematics"] = digest
    points = solve_scattering(k, tol=args.tol, seed=args.seed)
    total = chy_amplitude(k, points)
    tree = tree_amplitude(k)
    rel = abs(total - float(tree)) / abs(float(tree))
    import numpy as np

    return {
        "n": k.n,
        "critical_points": [
            {
                "coords": [_jsonify(complex(c)) for c in p.coords],
                "residual": p.residual,
                "hessian_determinant": _jsonify(complex(np.linalg.det(np.array(p.hessian)))),
            }
            for p in points
        ],
        "chy_sum": _jsonify(complex(total)),
        "tree_amplitude": str(tree),
        "relative_error": rel,
    }


def cmd_canonical_form(args, inputs):
    data, digest = _load_json(args.polytope)
    inputs["polytope"] = digest
    try:  # the dimension, read off the data before the hull costs anything
        dims = {len(r) for r in (data["V"] if data.get("V") else [f["a"] for f in data["H"]])}
    except (KeyError, TypeError):
        dims = set()
    if len(dims) == 1 and (dim := dims.pop()) > MAX_CANONICAL_DIM:
        raise ValidationError(f"canonical-form takes dimension at most {MAX_CANONICAL_DIM}, got {dim}")
    try:
        poly = Polytope.from_dict(data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{args.polytope}: {exc}") from exc
    num, den = canonical_parts(poly)
    return {
        "polytope": poly.to_dict(),
        "canonical_numerator": str(num),
        "canonical_denominator": str(den),
        "adjoint": str(num.primitive()),
    }


def cmd_abhy(args, inputs):
    mesh = [_fraction(getattr(args, name), f"--{name}") for name in ("s13", "s14", "s24")]
    try:
        pentagon = abhy_pentagon(*mesh)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    num, den = canonical_parts(pentagon, ("a", "b"))
    return {
        "polytope": pentagon.to_dict(),
        "canonical_numerator": str(num),
        "canonical_denominator": str(den),
    }


# verify_u_equations takes 0.7 s at n = 7 and 9 s at n = 8, growing fast
MAX_U_EQUATIONS_N = 8
# the fan canonical function takes 0.6 s on the seven-point ABHY associahedron
# (dimension 4, 42 vertices) and 630 s on the eight-point one (dimension 5)
MAX_CANONICAL_DIM = 4


def cmd_dihedral(args, inputs):
    if args.check == "u-equations":
        if not 4 <= args.n <= MAX_U_EQUATIONS_N:
            raise ValidationError(f"--n must be between 4 and {MAX_U_EQUATIONS_N} for u-equations, got {args.n}")
        report = verify_u_equations(args.n)
        return {
            "n": report.n,
            "identities": [
                {
                    "diagonal": "{}-{}".format(*e.diagonal),
                    "crossing": ["{}-{}".format(*d) for d in e.crossing],
                    "passed": e.passed,
                }
                for e in report.entries
            ],
            "all_passed": report.all_passed,
        }
    if args.kinematics is None:
        raise ValidationError("--check scattering needs --kinematics")
    k, digest = _load_kinematics(args.kinematics)
    inputs["kinematics"] = digest
    points = solve_scattering(k, tol=args.tol, seed=args.seed)
    residuals = [dihedral_scattering_residual(k, p) for p in points]
    return {"residuals": residuals, "max_residual": max(residuals)}


def cmd_amplituhedron(args, inputs):
    z, zd = _load_zmatrix(args.Z)
    line, ld = _load_line(args.line)
    inputs["Z"] = zd
    inputs["line"] = ld
    verdict = membership(line, z)
    return {
        "member": verdict.member,
        "chain_signs": list(verdict.chain_signs),
        "flip_count": verdict.flip_count,
        "chain": [str(v) for v in verdict.chain],
        "flip_sequence": [str(v) for v in verdict.flip_sequence],
    }


def cmd_stabs(args, inputs):
    z, zd = _load_zmatrix(args.Z)
    line, ld = _load_line(args.line)
    inputs["Z"] = zd
    inputs["line"] = ld
    return {"stabs": stabs(line, z)}


def cmd_adjoint_gr24(args, inputs):
    z, zd = _load_zmatrix(args.Z)
    inputs["Z"] = zd
    coeffs = adjoint_interpolation(z)
    return {"order": ["12", "13", "14", "23", "24", "34"], "coefficients": list(coeffs)}


def cmd_gkz(args, inputs):
    integrand, digest = _load_integrand(args.integrand)
    inputs["integrand"] = digest
    ops = gkz_operators(integrand)
    out = {
        "euler_operators": [str(op) for op in ops["euler"]],
        "toric_operators": [str(op) for op in ops["toric"]],
    }
    if args.evaluate is not None:
        c = [_float(v, "--evaluate") for v in args.evaluate.split(",")]
        params = {}
        if args.params:
            for item in args.params.split(","):
                name, _, val = item.partition("=")
                params[name.strip()] = _float(val, "--params")
        out["value"] = evaluate_euler(integrand, c, params)
    return out


def cmd_string_limit(args, inputs):
    k, digest = _load_kinematics(args.kinematics)
    inputs["kinematics"] = digest
    eps = tuple(_float(v, "--eps") for v in args.eps.split(","))
    result = string_limit(k, eps)
    return {
        "epsilons": list(result.epsilons),
        "values": list(result.values),
        "extrapolated": result.extrapolated,
        "tree_amplitude": str(result.tree),
        "relative_error": result.relative_error,
    }


def cmd_signature(args, inputs):
    data, digest = _load_json(args.path)
    inputs["path"] = digest
    try:
        path = PiecewiseLinearPath.from_points(_vectors(data["points"], "path points"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{args.path}: {exc}") from exc
    stack = signature(path, args.level)
    return {
        "dim": path.dim,
        "level": args.level,
        "levels": [_jsonify(t.to_nested()) for t in stack.levels],
    }


def cmd_crosscheck(args, inputs):
    k, digest = _load_kinematics(args.kinematics)
    inputs["kinematics"] = digest
    if k.n != 5:
        raise ValidationError("crosscheck is defined for n = 5 kinematics")
    planar = planar_variables(k)
    tree = tree_amplitude(k)  # raises PoleError on a vanishing planar variable
    mesh = abhy_constants(k)
    rf = canonical_function(abhy_pentagon(*mesh), ("a", "b"))
    dual = rf.evaluate({"a": k.entry(2, 3), "b": k.entry(3, 4)})
    points = solve_scattering(k, tol=args.tol, seed=args.seed)
    chy = chy_amplitude(k, points)
    rel = abs(chy - float(tree)) / abs(float(tree))
    return {
        "planar_variables": {"{}-{}".format(*d): str(v) for d, v in sorted(planar.items())},
        "tree_amplitude": str(tree),
        "pentagon_constants": [str(c) for c in mesh],
        "dual_volume_value": str(dual),
        "tree_equals_dual_volume": tree == dual,
        "chy_sum": _jsonify(complex(chy)),
        "chy_relative_error": rel,
        "chy_within_tolerance": rel < 1e-9,
    }


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tol", type=float, default=1e-12)
    common.add_argument("--pretty", action="store_true", help="indent the JSON output")
    common.add_argument("--output", metavar="FILE", help="write JSON here instead of stdout")

    parser = argparse.ArgumentParser(prog="posgeom", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("sample-kinematics", help="generate admissible kinematics")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--positive", action="store_true")
    p.add_argument("--abhy", action="store_true")
    p.set_defaults(func=cmd_sample_kinematics)

    p = add_parser("amplitude", help="planar tree amplitude and triangulations")
    p.add_argument("--kinematics", required=True)
    p.set_defaults(func=cmd_amplitude)

    p = add_parser("chy", help="critical points and the Hessian-determinant sum")
    p.add_argument("--kinematics", required=True)
    p.set_defaults(func=cmd_chy)

    p = add_parser("canonical-form", help="canonical function of a polytope")
    p.add_argument("--polytope", required=True)
    p.set_defaults(func=cmd_canonical_form)

    p = add_parser("abhy", help="the pentagon realization")
    p.add_argument("--s13", required=True, help="mesh constant c13 = -s13 > 0, as abhy_constants returns it")
    p.add_argument("--s14", required=True, help="mesh constant c14 = -s14 > 0")
    p.add_argument("--s24", required=True, help="mesh constant c24 = -s24 > 0")
    p.set_defaults(func=cmd_abhy)

    p = add_parser("dihedral", help="u-equations or the scattering-matrix residual")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--check", choices=["u-equations", "scattering"], required=True)
    p.add_argument("--kinematics")
    p.set_defaults(func=cmd_dihedral)

    p = add_parser("amplituhedron", help="sign-pattern membership for a line")
    p.add_argument("--Z", required=True)
    p.add_argument("--line", required=True)
    p.set_defaults(func=cmd_amplituhedron)

    p = add_parser("stabs", help="does the line meet the cyclic polytope interior")
    p.add_argument("--Z", required=True)
    p.add_argument("--line", required=True)
    p.set_defaults(func=cmd_stabs)

    p = add_parser("adjoint-gr24", help="adjoint linear form by interpolation")
    p.add_argument("--Z", required=True)
    p.set_defaults(func=cmd_adjoint_gr24)

    p = add_parser("gkz", help="annihilating operators of an Euler integrand")
    p.add_argument("--integrand", required=True)
    p.add_argument("--evaluate", metavar="C1,C2,...", help="also evaluate at these coefficients")
    p.add_argument("--params", metavar="NAME=VAL,...", help="numeric values for symbolic exponents")
    p.set_defaults(func=cmd_gkz)

    p = add_parser("string-limit", help="string integral and its field-theory limit")
    p.add_argument("--kinematics", required=True)
    p.add_argument("--eps", default="0.2,0.1,0.05")
    p.set_defaults(func=cmd_string_limit)

    p = add_parser("signature", help="truncated path-signature tensors")
    p.add_argument("--path", required=True)
    p.add_argument("--level", type=int, default=3)
    p.set_defaults(func=cmd_signature)

    p = add_parser("crosscheck", help="three-way five-point amplitude comparison")
    p.add_argument("--kinematics", required=True)
    p.set_defaults(func=cmd_crosscheck)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # --tol goes into every manifest, which must stay valid JSON
    if not (math.isfinite(args.tol) and args.tol > 0):
        print(f"validation error: tol must be finite and positive, got {args.tol}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    inputs: dict[str, str] = {}
    try:
        result = args.func(args, inputs)
        code = 0
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (WrongCountError, DivergentIntegralError, QuadratureError, PoleError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant violation
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    manifest = {
        "subcommand": args.command,
        "inputs": inputs,
        "seed": args.seed,
        "tol": args.tol,
        "version": __version__,
    }
    document = {"manifest": manifest, "result": _jsonify(result)}
    if args.pretty:
        text = json.dumps(document, sort_keys=True, indent=2)
    else:
        text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"wall time: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
