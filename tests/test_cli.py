import contextlib
import copy
import io
import json
import subprocess
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posgeom.cli import main
from posgeom.kinematics import sample_abhy_kinematics, sample_kinematics


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "posgeom.cli", *args], capture_output=True, text=True, cwd=cwd
    )


def run_main(*args):
    """Run the CLI in-process; return the exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, err.getvalue()


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


Z_ROWS = {"rows": [[1, i, i * i, i**3] for i in range(1, 6)]}
LINE = {"A": ["1", "0", "0", "0"], "B": ["0", "1", "0", "0"]}
# the integrand example of docs/schemas.md
INTEGRAND = {
    "nvars": 2,
    "forms": [
        {"monomials": [[1, 0], [0, 1], [0, 0]], "coefficients": [1, 2, 3], "exponent": "-1"},
        {"monomials": [[1, 0], [0, 0]], "coefficients": [4, 5], "exponent": "-1"},
        {"monomials": [[0, 1], [0, 0]], "coefficients": [6, 7], "exponent": "-1"},
    ],
    "prefactor": [{"eps": "1", "const": "1"}, {"eps": "1", "const": "1"}],
}
# paths to the integer slots of INTEGRAND: nvars, coefficient indices, monomial exponents
INTEGER_SLOTS = [("nvars",)] + [
    path
    for f, form in enumerate(INTEGRAND["forms"])
    for path in [("forms", f, "coefficients", i) for i in range(len(form["coefficients"]))]
    + [("forms", f, "monomials", m, e) for m, mono in enumerate(form["monomials"]) for e in range(len(mono))]
]


def with_slot(document, path, value):
    """A deep copy of document with the entry at path replaced by value."""
    out = copy.deepcopy(document)
    *head, last = path
    target = out
    for key in head:
        target = target[key]
    target[last] = value
    return out


def kinematics_file(tmp_path, seed=7, abhy=True):
    path = tmp_path / "k.json"
    args = ["sample-kinematics", "--n", "5", "--seed", str(seed), "--output", str(path)]
    if abhy:
        args.append("--abhy")
    out = run_cli(*args)
    assert out.returncode == 0, out.stderr
    return str(path)


def test_crosscheck_flow(tmp_path):
    kfile = kinematics_file(tmp_path)
    out = run_cli("crosscheck", "--kinematics", kfile)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    result = doc["result"]
    assert result["tree_equals_dual_volume"] is True
    assert result["chy_within_tolerance"] is True
    assert doc["manifest"]["subcommand"] == "crosscheck"
    assert doc["manifest"]["inputs"]


def test_byte_identical_reruns(tmp_path):
    kfile = kinematics_file(tmp_path)
    a = run_cli("crosscheck", "--kinematics", kfile, "--seed", "3")
    b = run_cli("crosscheck", "--kinematics", kfile, "--seed", "3")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_amplitude_lists_triangulations(tmp_path):
    kfile = kinematics_file(tmp_path)
    out = run_cli("amplitude", "--kinematics", kfile)
    result = json.loads(out.stdout)["result"]
    assert len(result["triangulations"]) == 5
    assert "/" in result["amplitude"] or result["amplitude"].lstrip("-").isdigit()


def test_chy_subcommand(tmp_path):
    kfile = kinematics_file(tmp_path, seed=2, abhy=False)
    out = run_cli("chy", "--kinematics", kfile, "--tol", "1e-10", "--seed", "5")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)["result"]
    assert len(result["critical_points"]) == 2
    assert result["relative_error"] < 1e-9


def test_validation_exit_code(tmp_path):
    out = run_cli("amplitude", "--kinematics", str(tmp_path / "missing.json"))
    assert out.returncode == 2
    bad = write_json(tmp_path / "bad.json", {"n": 5})
    out = run_cli("amplitude", "--kinematics", bad)
    assert out.returncode == 2
    notsym = write_json(
        tmp_path / "notsym.json",
        {"n": 4, "s": [["0", "1", "0", "0"], ["0", "0", "0", "0"], ["0"] * 4, ["0"] * 4]},
    )
    out = run_cli("amplitude", "--kinematics", notsym)
    assert out.returncode == 2

    lfile = write_json(tmp_path / "line.json", LINE)
    kfile = write_json(tmp_path / "k.json", {"n": 5, "s": [1, 2, 3, 4, 5]})
    five_point = write_json(tmp_path / "k5.json", sample_kinematics(5, 0).to_dict())
    cases = [
        ("amplitude", "--kinematics", kfile),
        ("stabs", "--Z", write_json(tmp_path / "z5.json", {"rows": 5}), "--line", lfile),
        ("adjoint-gr24", "--Z", write_json(tmp_path / "five.json", 5)),
        ("canonical-form", "--polytope", write_json(tmp_path / "list.json", [1, 2])),
        ("signature", "--path", write_json(tmp_path / "empty.json", {"points": []})),
        ("dihedral", "--check", "scattering"),
        ("string-limit", "--kinematics", five_point, "--eps", "1/0"),
        # NaN and Infinity are not JSON numbers
        ("canonical-form", "--polytope", write_json(tmp_path / "inf.json", {"V": [[float("inf"), 0]]})),
        # numeric arguments beyond the float range
        ("string-limit", "--kinematics", five_point, "--eps", "1e400"),
        ("gkz", "--integrand", write_json(tmp_path / "ok.json", INTEGRAND), "--evaluate", "1,1,1,1,1,1,1e400"),
        ("gkz", "--integrand", str(tmp_path / "ok.json"), "--evaluate", "1,1,1,1,1,1,1", "--params", "eps=-1e400"),
        # an exponent parameter without a value
        ("gkz", "--integrand", str(tmp_path / "ok.json"), "--evaluate", "1,1,1,1,1,1,1", "--params", "foo=1"),
        ("gkz", "--integrand", str(tmp_path / "ok.json"), "--evaluate", "1,1,1,1,1,1,1"),
        # integer slots of an integrand take integers only, never floats or booleans
        ("gkz", "--integrand", write_json(tmp_path / "nvars.json", with_slot(INTEGRAND, ("nvars",), 2.5))),
        ("gkz", "--integrand",
         write_json(tmp_path / "index.json", with_slot(INTEGRAND, ("forms", 0, "coefficients", 2), 3.9))),
        ("gkz", "--integrand",
         write_json(tmp_path / "expo.json", with_slot(INTEGRAND, ("forms", 1, "monomials", 0, 0), True))),
    ]
    # malformed polytopes: H rows of the wrong length, an empty point, a
    # number beyond the float range, and a dimension above the cap of 4
    square = [{"a": ["1", "0"], "b": "1"}, {"a": ["0", "1"], "b": "1"}, {"a": ["0", "-1"], "b": "0"}]
    huge = tmp_path / "huge.json"
    huge.write_text('{"V": [[1e400, 0], [0, 1], [0, 0]]}')
    cube = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    moment5 = [[t**e for e in range(1, 6)] for t in range(-8, 8)]
    polytopes = [
        {"H": square + [{"a": ["-1"], "b": "0"}]},
        {"H": square + [{"a": ["-1", "0", "5"], "b": "0"}]},
        {"V": [[]]},
        {"V": moment5},
    ]
    cases += [
        ("canonical-form", "--polytope", write_json(tmp_path / f"poly{i}.json", data))
        for i, data in enumerate(polytopes)
    ]
    cases.append(("canonical-form", "--polytope", str(huge)))
    # string-limit epsilons must be positive and pairwise distinct
    positive_point = write_json(tmp_path / "k5pos.json", sample_kinematics(5, 1, positive=True).to_dict())
    cases += [("string-limit", "--kinematics", positive_point, "--eps", eps) for eps in ("0.2,0.2,0.05", "0", "-0.1")]
    # --tol goes into every manifest, so it must be finite and positive
    cases += [
        ("sample-kinematics", "--n", "5", "--seed", "1", "--tol", "nan"),
        ("amplitude", "--kinematics", five_point, "--tol", "inf"),
        ("signature", "--path", write_json(tmp_path / "path.json", {"points": [[0, 0], [1, 2]]}), "--tol", "-1"),
    ]
    # the symbolic u-equation check is capped at n = 8 (9 s there, minutes beyond)
    cases += [("dihedral", "--check", "u-equations", "--n", n) for n in ("3", "9", "1000000")]
    for args in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(args))
        assert code == 2, (args, err.getvalue())
        assert "validation error" in err.getvalue(), (args, err.getvalue())
        assert out.getvalue() == "", args
    # the dimension is checked before the hull: a flat set in dimension 5
    # gets the dimension message, not the hull's
    flat5 = write_json(tmp_path / "flat5.json", {"V": [[*p[:4], 0] for p in moment5]})
    code, err = run_main("canonical-form", "--polytope", flat5)
    assert code == 2 and "canonical-form takes dimension at most 4, got 5" in err, err
    # the unit cube is within the cap: its facets pair up in parallel, so the adjoint is 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["canonical-form", "--polytope", write_json(tmp_path / "cube.json", {"V": cube})])
    assert code == 0 and json.loads(out.getvalue())["result"]["adjoint"] == "1"
    # so is the 4-cube, at the cap, for the same reason
    cube4 = [[k >> i & 1 for i in range(4)] for k in range(16)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["canonical-form", "--polytope", write_json(tmp_path / "cube4.json", {"V": cube4})])
    assert code == 0 and json.loads(out.getvalue())["result"]["adjoint"] == "1"
    # roots are verified against --tol, so it must be finite and positive
    abhy_point = write_json(tmp_path / "abhy.json", sample_abhy_kinematics(0).to_dict())
    for command in (["chy"], ["crosscheck"], ["dihedral", "--check", "scattering"]):
        for tol in ("nan", "-1", "0", "inf"):
            code, err = run_main(*command, "--kinematics", abhy_point, "--tol", tol)
            assert code == 2 and "validation error: tol must be" in err, (command, tol, err)


def test_numerical_exit_code_on_pole(tmp_path):
    # planar variable X13 = s12 vanishes: the amplitude has a pole there
    zero_s12 = {
        "n": 5,
        "s": [
            ["0", "0", "-1", "1", "0"],
            ["0", "0", "1", "0", "-1"],
            ["-1", "1", "0", "-1", "1"],
            ["1", "0", "-1", "0", "0"],
            ["0", "-1", "1", "0", "0"],
        ],
    }
    path = write_json(tmp_path / "pole.json", zero_s12)
    out = run_cli("crosscheck", "--kinematics", path)
    assert out.returncode == 3
    assert "numerical failure" in out.stderr


def test_underflowing_integral_exits_3(tmp_path):
    # one form to the power -3: the integral is about 7e-155 at c3 = 1e308,
    # but its integrand underflows to 0 everywhere
    one_form = dict(INTEGRAND, forms=[dict(INTEGRAND["forms"][0], exponent="-3")])
    path = write_json(tmp_path / "one_form.json", one_form)
    code, err = run_main("gkz", "--integrand", path, "--evaluate", "1,1,1e308", "--params", "eps=1/4")
    assert code == 3 and "numerical failure" in err, err


def test_adjoint_and_membership_files(tmp_path):
    zfile = write_json(tmp_path / "z.json", Z_ROWS)
    out = run_cli("adjoint-gr24", "--Z", zfile)
    result = json.loads(out.stdout)["result"]
    assert result["coefficients"] == [593, -330, 49, 143, -30, 5]

    lfile = write_json(tmp_path / "line.json", LINE)
    out = run_cli("amplituhedron", "--Z", zfile, "--line", lfile)
    result = json.loads(out.stdout)["result"]
    assert result["member"] is False
    out = run_cli("stabs", "--Z", zfile, "--line", lfile)
    assert json.loads(out.stdout)["result"]["stabs"] is False

    pline = write_json(tmp_path / "pline.json", {"p": ["1", "0", "0", "0", "0", "0"]})
    out = run_cli("stabs", "--Z", zfile, "--line", pline)
    assert out.returncode == 0


def test_gkz_subcommand(tmp_path):
    path = write_json(tmp_path / "bp.json", INTEGRAND)
    out = run_cli("gkz", "--integrand", path)
    result = json.loads(out.stdout)["result"]
    assert result["toric_operators"] == ["d1*d5 - d3*d4", "d2*d7 - d3*d6"]
    assert len(result["euler_operators"]) == 5


def test_signature_subcommand(tmp_path):
    path = write_json(tmp_path / "p.json", {"points": [["0", "0"], ["1", "0"], ["1", "1"]]})
    out = run_cli("signature", "--path", path, "--level", "2")
    result = json.loads(out.stdout)["result"]
    assert result["levels"][2] == [["1/2", "1"], ["0", "1/2"]]


def test_dihedral_subcommand(tmp_path):
    out = run_cli("dihedral", "--check", "u-equations", "--n", "5")
    result = json.loads(out.stdout)["result"]
    assert result["all_passed"] is True
    kfile = kinematics_file(tmp_path, seed=4, abhy=False)
    out = run_cli("dihedral", "--check", "scattering", "--kinematics", kfile, "--tol", "1e-10")
    result = json.loads(out.stdout)["result"]
    assert result["max_residual"] < 1e-9


def test_main_reuses_its_parser_across_calls(tmp_path, capsys, monkeypatch):
    import posgeom.cli as cli

    real, built = cli.build_parser, []

    def counting_build_parser():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    kfile = write_json(tmp_path / "k.json", sample_abhy_kinematics(3).to_dict())
    stdout = []
    for args in (["amplitude", "--kinematics", kfile], ["amplitude", "--no-such-flag"],
                 ["amplitude", "--kinematics", kfile]):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        stdout.append(capsys.readouterr().out)
        assert code == (2 if "--no-such-flag" in args else 0), args
    assert stdout[1] == ""
    assert stdout[0] == stdout[2] and json.loads(stdout[0])["result"]["amplitude"]
    assert len(built) == 1


def test_abhy_subcommand():
    out = run_cli("abhy", "--s13", "1", "--s14", "1", "--s24", "1")
    result = json.loads(out.stdout)["result"]
    assert len(result["polytope"]["V"]) == 5
    out = run_cli("abhy", "--s13", "-1", "--s14", "1", "--s24", "1")
    assert out.returncode == 2


def test_string_limit_subcommand(tmp_path):
    kfile = write_json(
        tmp_path / "pos.json",
        {
            "n": 5,
            "s": None,
        },
    )
    # build a proper positive-planar kinematics via the library
    from fractions import Fraction as F

    from posgeom.kinematics import kinematics_from_planar, polygon_diagonals

    k = kinematics_from_planar(5, {d: F(1) for d in polygon_diagonals(5)})
    kfile = write_json(tmp_path / "pos.json", k.to_dict())
    out = run_cli("string-limit", "--kinematics", kfile, "--eps", "0.2,0.1,0.05")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)["result"]
    assert result["relative_error"] < 0.01


SCHEMA_KEYS = ["n", "s", "rows", "A", "B", "p", "V", "H", "a", "b", "dim", "points",
               "nvars", "forms", "monomials", "coefficients", "exponent", "prefactor",
               "const", "eps", "manifest", "result"]
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-6, 6)
    | st.floats(-1e3, 1e3, allow_nan=False)
    | st.sampled_from(["0", "1", "-1", "1/2", "1/0", "x", "", "1e400", float("inf")])
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=2), inner, max_size=5),
    max_leaves=12,
)
# (subcommand arguments before the file, the option that takes the fuzzed file)
FILE_READERS = [
    (["amplitude"], "--kinematics"),
    (["chy"], "--kinematics"),
    (["crosscheck"], "--kinematics"),
    (["string-limit"], "--kinematics"),
    (["dihedral", "--check", "scattering"], "--kinematics"),
    (["canonical-form"], "--polytope"),
    (["adjoint-gr24"], "--Z"),
    (["amplituhedron", "--line", "LINE"], "--Z"),
    (["stabs", "--Z", "Z"], "--line"),
    (["gkz"], "--integrand"),
    (["signature"], "--path"),
]


# the INTEGRAND example with one integer slot holding a float or a boolean:
# every reader must reject it (exit 2)
NON_INTEGER_SLOTS = st.builds(
    with_slot,
    st.just(INTEGRAND),
    st.sampled_from(INTEGER_SLOTS),
    st.booleans() | st.floats(-8, 8, allow_nan=False),
)


@settings(max_examples=80, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=DOCUMENTS.map(lambda d: (d, (0, 2, 3))) | NON_INTEGER_SLOTS.map(lambda d: (d, (2,))),
       reader=st.sampled_from(FILE_READERS))
def test_arbitrary_json_never_internal_error(tmp_path_factory, case, reader):
    document, allowed = case
    folder = tmp_path_factory.getbasetemp()
    fixed = {"Z": write_json(folder / "fuzz_z.json", Z_ROWS),
             "LINE": write_json(folder / "fuzz_line.json", LINE)}
    fuzzed = write_json(folder / "fuzz.json", document)
    prefix, option = reader
    code, err = run_main(*[fixed.get(a, a) for a in prefix], option, fuzzed)
    assert code in allowed, (document, err)
