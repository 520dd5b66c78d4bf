import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from conftest import CHAIN_BREAK, J5, KAPPA_LISTS, LEX_HOLE, jordan_blocks
from filtra import cli
from filtra.cli import main
from filtra.group import MAX_DEGREE, group_to_spec, make_ut
from filtra.liering import GradedLieRing
from loop_reference import loop_cmd_verify


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-m", "filtra.cli", *args],
        capture_output=True, text=True, env=full_env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def chain_exps(doc):
    return [t["order_exp"] for t in doc["filter"]["terms"]] + [0]


def distinct_chain_exps(doc):
    # support indices may share a value; the chain is the distinct drops
    return sorted({t["order_exp"] for t in doc["filter"]["terms"]}, reverse=True) + [0]


@pytest.mark.parametrize(
    "args,want",
    [
        (("series", "--ut", "4", "2", "--which", "gamma"), [6, 3, 1, 0]),
        (("series", "--heisenberg", "2,0,0,1", "--which", "gamma"), [6, 2, 0]),
        (("series", "--ut", "3", "2", "--which", "eta"), [3, 1, 0]),
        (("series", "--ut", "3", "2", "--series", "kappa"), [3, 1, 0]),
    ],
)
def test_series_examples(args, want):
    code, out, _ = run_cli(*args)
    assert code == 0
    doc = json.loads(out)
    assert chain_exps(doc) == want


def test_series_json_shape():
    code, out, _ = run_cli("series", "--ut", "3", "2")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"group", "series", "filter"}
    assert doc["group"] == "UT(3,2)"
    assert doc["series"] == "gamma"
    assert doc["filter"]["dim"] == 1


def test_refine_ut4():
    code, out, _ = run_cli("refine", "--ut", "4", "2", "--method", "adjoint")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert distinct_chain_exps(doc) == [6, 5, 3, 1, 0]
    assert len(doc["rounds"]) == 1
    r = doc["rounds"][0]
    assert r["index"] == [1]
    assert r["section_dim"] == 3
    assert r["ring_dim"] == 4
    assert r["radical_chain"] == [2]
    assert r["inserted_order_exps"] == [5, 3]


def test_refine_rounds_flag():
    code, out, _ = run_cli("refine", "--ut", "4", "2", "--rounds", "1")
    assert code == 0
    doc = json.loads(out)
    assert "converged" not in doc
    assert distinct_chain_exps(doc) == [6, 5, 3, 1, 0]


def test_refine_ut3_unchanged():
    code, out, _ = run_cli("refine", "--ut", "3", "2", "--method", "adjoint")
    assert code == 0
    doc = json.loads(out)
    assert doc["rounds"] == []
    assert doc["converged"] is True
    assert chain_exps(doc) == [3, 1, 0]


def test_refine_heisenberg_with_check():
    code, out, _ = run_cli("refine", "--heisenberg", "2,0,0,1", "--check")
    assert code == 0
    doc = json.loads(out)
    assert distinct_chain_exps(doc) == [6, 4, 2, 1, 0]
    assert doc["filter"]["length"] == 4


def test_fingerprint_single_group():
    code, out, _ = run_cli("fingerprint", "--ut", "3", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "UT(3,2)"
    assert doc["fingerprint"]["length"] == 2


def test_fingerprint_equal_groups_exit_zero(tmp_path):
    spec = group_to_spec(make_ut(4, 2))
    spec["generators"] = spec["generators"][::-1]
    path = tmp_path / "group.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli("fingerprint", "--ut", "4", "2", "--group", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["equal"] is True
    assert doc["first"]["fingerprint"] == doc["second"]["fingerprint"]


def test_fingerprint_differ_exit_three():
    code, out, _ = run_cli(
        "fingerprint", "--heisenberg", "2,1,1,1", "--heisenberg", "2,0,0,1")
    assert code == 3
    doc = json.loads(out)
    assert doc["equal"] is False


def test_verify_ok():
    code, out, _ = run_cli("verify", "--ut", "3", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["violations"] == []
    assert doc["series"] == "eta"


@pytest.mark.parametrize("seed", ["0", "7"])
@pytest.mark.parametrize("p", ["2", "3"])
def test_verify_violations_match_loop_verify(monkeypatch, capsys, p, seed):
    # one entry of two tensors moved by 1: each of the four checks objects
    # (the bilinear one to the second entry), and batched verify lists the
    # violations as the pair-by-pair loop does, with the same exit code
    product_tensor = GradedLieRing.product_tensor
    moved = {((1,), (1,)): (0, 1, 0), ((1,), (2,)): (2, 0, 0)}

    def tampered(ring, s, t):
        tensor = product_tensor(ring, s, t)
        if (s, t) not in moved:
            return tensor
        bad = tensor.copy()
        bad[moved[s, t]] = (bad[moved[s, t]] + 1) % ring.p
        return bad

    monkeypatch.setattr(GradedLieRing, "product_tensor", tampered)
    argv = ["verify", "--ut", "4", p, "--series", "gamma", "--seed", seed]
    got = main(argv), capsys.readouterr()
    monkeypatch.setattr(cli, "cmd_verify", loop_cmd_verify)
    want = main(argv), capsys.readouterr()
    assert got == want
    assert got[0] == 1
    # a bilinear violation starts with its index s, printed as a tuple
    kinds = {"bilinear" if v[0].startswith("(") else v[0]
             for v in json.loads(got[1].out)["violations"]}
    assert kinds == {"antisymmetry", "bilinear", "well_defined", "jacobi"}


def test_no_group_is_usage_error():
    code, _, err = run_cli("series")
    assert code == 1
    assert "no group" in err


@pytest.mark.parametrize("args,takes", [
    (("series", "--ut", "3", "2", "--ut", "100000", "2"), "series takes one group"),
    (("refine", "--ut", "3", "2", "--heisenberg", "2,0,1"), "refine takes one group"),
    (("verify", "--heisenberg", "2,0,1", "--group", "no-such-file.json"), "verify takes one group"),
    (("fingerprint", "--ut", "3", "2", "--ut", "3", "2", "--group", "no-such-file.json"),
     "fingerprint takes one or two groups"),
])
def test_extra_groups_are_input_errors(capsys, args, takes):
    # the entries are counted before any group is built: building UT(100000, 2)
    # or reading a missing file would fail with another message
    code = main(list(args))
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert takes in err and "Traceback" not in err


def test_unknown_series_is_usage_error():
    code, _, _ = run_cli("series", "--ut", "3", "2", "--which", "omega")
    assert code == 1


def test_bad_group_file_is_input_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run_cli("series", "--group", str(path))
    assert code == 1

    path2 = tmp_path / "badshape.json"
    path2.write_text(json.dumps({"p": 2, "degree": 3, "generators": [[1, 0, 1]]}))
    code2, _, err2 = run_cli("series", "--group", str(path2))
    assert code2 == 1
    assert "bad group spec" in err2

    # SL(2,2) and SL(2,251) are not p-groups, and the second is refused
    # before its 15,813,000 elements are enumerated; the others are not specs
    # at all, and none of their values is coerced into one
    for spec, message in (
        ({"p": 2, "degree": 2, "generators": [[1, 1, 0, 1], [1, 0, 1, 1]]}, "p-group"),
        ({"p": 251, "degree": 2, "generators": [[1, 1, 0, 1], [1, 0, 1, 1]]}, "p-group"),
        ([[1, 1, 0, 1]], "JSON object"),
        ({"p": 2, "generators": [[1, 0, 0, 1]]}, "'degree'"),
        ({"p": 2, "degree": 2, "generators": 5}, "'generators'"),
        ({"p": 2.7, "degree": 2, "generators": [[1, 1, 0, 1]]}, "'p'"),
        ({"p": 2, "degree": 2, "generators": [[1, 1.5, 0, 1]]}, "'generators'"),
        ({"p": 2, "degree": 2, "generators": [[1, 1, 0, 1]], "name": None}, "'name'"),
        ({"p": 2, "degree": 2, "generators": [[1, 2**70, 0, 1]]}, "64 bits"),
    ):
        path3 = tmp_path / "spec.json"
        path3.write_text(json.dumps(spec))
        code3, out3, err3 = run_cli("series", "--group", str(path3))
        assert (code3, out3) == (1, "")
        assert f"bad group spec in {path3}" in err3 and message in err3
        assert "Traceback" not in err3


def test_cap_exceeded_is_compute_error():
    code, _, err = run_cli("series", "--ut", "4", "2", env={"FILTRA_CAP": "4"})
    assert code == 2
    assert "cap" in err.lower()


def test_cap_flag_overrides_env():
    code, _, _ = run_cli(
        "series", "--ut", "4", "2", "--cap", "100000", env={"FILTRA_CAP": "4"})
    assert code == 0


def test_output_is_byte_stable():
    runs = [run_cli("refine", "--ut", "4", "2") for _ in range(2)]
    assert runs[0][0] == runs[1][0] == 0
    assert runs[0][1] == runs[1][1]
    assert "\n" == runs[0][1][-1] and " " not in runs[0][1].strip()


# sha256 of stdout; the generator lists in the JSON are part of what is pinned
GOLDEN = [
    (("refine", "--ut", "4", "2"),
     "2f9de25a00453b86c74686a0aff135e07312325eac5ca9449d4680ac857c22d1"),
    (("refine", "--heisenberg", "2,0,0,1", "--check"),
     "e21c5b2a71f547a51c65a7eb9a799db6700d1ae205abecb8261542c39281a756"),
    (("fingerprint", "--ut", "4", "3", "--method", "centroid"),
     "a5ed0a8ab7165b782045cbc5d3cc29d813f712b908ee17906eca1393b273e337"),
    (("series", "--ut", "5", "2", "--series", "kappa"),
     "dfff851b26807a8c8bea07c80a0514f4834018e75e0a6a4871a765fc2562caa4"),
    (("verify", "--ut", "4", "2", "--series", "eta"),
     "1658e1325b8151695e87d2d71e3427e8963f6f41b560dc10faa35f8ab59ccd48"),
    (("refine", "--ut", "4", "2", "--rounds", "1"),
     "de5cfe5d93e75e1fd44af87a5554f6a5bc4ca959c1d7e49e701420ff15af7d86"),
    (("refine", "--ut", "4", "2", "--rounds", "0"),
     "2a4ed900c68838ade694dc12e243f1ac766031c2c3333b9655937c4db826ef5d"),
    # a cap equal to |UT(4,2)| gives the uncapped output
    (("refine", "--ut", "4", "2", "--cap", "64"),
     "2f9de25a00453b86c74686a0aff135e07312325eac5ca9449d4680ac857c22d1"),
    # refinements whose targets lie past the end of a refined row
    (("refine", "--ut", "7", "2", "--cap", "2097152"),
     "e27e00bf53bef20b273872ca601d0dd9894dc9b6aeffb236a8fc65c9037eeb92"),
    # --check changes no output
    (("refine", "--ut", "7", "2", "--cap", "2097152", "--check"),
     "e27e00bf53bef20b273872ca601d0dd9894dc9b6aeffb236a8fc65c9037eeb92"),
    (("refine", "--ut", "6", "5", "--cap", "30517578125"),
     "93b11ded98d6d59562a5e64db28211b571b1e518687cce774699da63c11ce75d"),
    # derivation and centroid rings under --check, where characteristic
    # polynomials in the meataxe repeat factors, some to a p-th power
    (("refine", "--heisenberg", "5,0,0,1", "--series", "kappa", "--method", "derivation",
      "--check"),
     "1ef53ae78aff41dc8bd8bda5d9da668d01ef42d73307d890b7b95507375e8b97"),
    (("refine", "--heisenberg", "2,1,1,0,0,1", "--method", "centroid", "--check"),
     "a255c2041d544bf5fe8276f882d76bdfad71df1fc8ca759ec3905da43ef3d0f9"),
    (("fingerprint", "--heisenberg", "3,1,0,1", "--method", "derivation"),
     "7b5e731a090ef97d5ee03f03fa4106a74038e442626a7082cda43f59d2190120"),
    # H(F_256): its 2048 x 576 derivation system, eliminated over GF(2)
    (("refine", "--heisenberg", "2,1,1,0,1,1,0,0,0,1", "--cap", "16777216",
      "--method", "derivation"),
     "32264cd11a07d831451cd58941d467492d834a07a2c5e4b7b86f2d32c42bdfb1"),
    # H(F_3[x]/x^4): odd-p factoring in the meataxe and the radical chain
    # J > J^2 > J^3 (dims 12, 8, 4)
    (("fingerprint", "--heisenberg", "3,0,0,0,0,1"),
     "eae861689420ab81258a7b6a3b6326acee96b24ce4bd0f266d74ac3ac08e75f9"),
    # UT(2,3) is abelian: its leading component brackets into the trivial
    # one, so each checked centroid or derivation member acts on a target
    # of dimension 0 by a 0 x 0 matrix
    (("verify", "--ut", "2", "3", "--method", "centroid"),
     "2393f0567111a9fd0d5143961a6e48da15d68889f37e4a48d62aa92c6d3b8a33"),
    (("verify", "--ut", "2", "3", "--method", "derivation"),
     "88b7775c7f9e9eb695b31a0bfcbea2c9f427db3f1d6f59a5e5d97c72fede4f41"),
    (("refine", "--ut", "2", "3", "--method", "derivation", "--check"),
     "669aa004ebbcf14729b240cec058c9002868f664e3141f6237ecb7d8d8b4cf83"),
]


@pytest.mark.parametrize("args,want", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_stdout(args, want):
    code, out, err = run_cli(*args)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == want


def transposed_ut(d: int, p: int) -> dict:
    """The spec of UT(d, p) with every generator transposed: a lower
    unitriangular group, whose flag basis is not the identity."""
    spec = group_to_spec(make_ut(d, p))
    spec["generators"] = [[gen[j * d + i] for i in range(d) for j in range(d)]
                          for gen in spec["generators"]]
    return spec | {"name": f"UT({d},{p})^T"}


# a group given up to conjugation: its first gamma section has B' != B
DJ5 = {"p": 2, "degree": 5, "name": "dJ5", "generators": [
    [0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 1, 1, 0, 1, 1],
    [0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1],
    [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1]]}

# sha256 of stdout on group files.  The first three have a flag basis other
# than I, where a section's choice of reps must not reach the printed
# subgroups.  The Jordan-block groups are abelian with generator p-th powers
# outside 1 (the gamma section G/1 of J5^3 has B' != B): their eta steps and
# sections grow C by H's generator p-th powers, and these digests were taken
# when those products listed every element of H.
SPEC_GOLDEN = [
    (LEX_HOLE, ("refine", "--series", "eta", "--method", "centroid", "--check"),
     "f172e5016a068527a87fca385fa71f412af700e32c491622b82acf87f095011c"),
    (DJ5, ("refine", "--check"),
     "a5f75ca0c6704dbf12e22189d2da9c7d31334c2f89b4a306cdc81573f3ce1f5b"),
    (transposed_ut(6, 2), ("refine", "--check"),
     "70b1a514f055942bc984345258f1533787f0a0839fd7795c01ccd99379635f6b"),
    (jordan_blocks(2, 3, 5), ("series", "--series", "eta"),
     "9b7c9da8e127de33b4a469d2c770c937693da5300dcd02c6de7227459fec3c2a"),
    (jordan_blocks(2, 3, 5), ("refine", "--check"),
     "2f929df104b4586542cd98b2ab898db34329923147a83533d26a0aba0540142f"),
    (jordan_blocks(3, 3, 4), ("fingerprint",),
     "e521ac6fecf2f5940d896a241e26b5e4fc9b5721a966dd7f6ad9486fafb179c7"),
    (jordan_blocks(3, 3, 4), ("refine", "--series", "eta", "--check"),
     "d5dcab0f09470d27998fa0a2899f9d10765c22282c2627268ae0a002127168bf"),
    # abelian, so the checked centroid acts on a target of dimension 0
    (jordan_blocks(2, 3, 5), ("refine", "--method", "centroid", "--check"),
     "27f848dda76ba2404db87a6a69dca3c2188b500c46f8f59c31dc7acbec244ff0"),
]


@pytest.mark.parametrize("spec,args,want", SPEC_GOLDEN,
                         ids=["LEX_HOLE eta centroid", "dJ5", "UT(6,2)^T", "J5^3 eta series",
                              "J5^3 refine", "J4^3 fingerprint", "J4^3 eta refine",
                              "J5^3 centroid refine"])
def test_golden_stdout_on_group_files(tmp_path, spec, args, want):
    code, out, err = run_cli(*args, "--group", write_spec(tmp_path, spec))
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_out_file(tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run_cli("series", "--ut", "3", "2", "--out", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["group"] == "UT(3,2)"


@pytest.mark.parametrize(
    "args,env,bad",
    [
        (("series", "--ut", "3", "2"), {"FILTRA_CAP": "abc"}, "'abc'"),
        (("series", "--ut", "3", "2"), {"FILTRA_CAP": "0"}, "'0'"),
        (("series", "--ut", "3", "2"), {"FILTRA_CAP": "-5"}, "'-5'"),
        (("series", "--ut", "3", "2", "--cap", "0"), None, "'0'"),
        (("series", "--ut", "3", "2", "--cap", "-1"), None, "'-1'"),
        (("refine", "--ut", "3", "2", "--rounds", "-1"), None, "'-1'"),
    ],
)
def test_bad_cap_and_rounds_are_input_errors(args, env, bad):
    code, out, err = run_cli(*args, env=env)
    assert code == 1
    assert out == ""
    assert bad in err


def write_spec(tmp_path, spec, name="group.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


TRIVIAL = {"p": 2, "degree": 2, "generators": [[1, 0, 0, 1]], "name": "trivial"}


@pytest.mark.parametrize("command", ["series", "refine", "fingerprint", "verify"])
def test_trivial_group_has_length_zero(tmp_path, command):
    code, out, err = run_cli(command, "--group", write_spec(tmp_path, TRIVIAL))
    assert code == 0, err
    doc = json.loads(out)
    if command == "fingerprint":
        fp = doc["fingerprint"]
        assert fp["length"] == 0 and fp["factor_dims"] == [] and fp["rounds"] == 0
    elif command == "verify":
        assert doc["ok"] is True
    else:
        assert doc["filter"]["length"] == 0
    if command == "refine":
        assert doc["rounds"] == [] and doc["converged"] is True


def test_trivial_group_refine_rounds(tmp_path):
    code, out, _ = run_cli("refine", "--group", write_spec(tmp_path, TRIVIAL), "--rounds", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["rounds"] == [] and doc["filter"]["length"] == 0


@pytest.mark.parametrize("spec,violation,cap", [
    (LEX_HOLE, "('lex_hole', (2, 2), (3, 0))", ()),
    (CHAIN_BREAK, "('order_reversal', (3, 0))", ()),
    (J5, "('lex_hole', (3, 1), (4, 0))", ()),
    (KAPPA_LISTS, "('order_reversal', (3, 0))", ("--cap", "14348907")),  # order 3^15
], ids=["lex_hole", "chain_break", "j5", "kappa_lists"])
def test_refine_check_rejects_broken_lex_descent(tmp_path, spec, violation, cap):
    path = write_spec(tmp_path, spec)
    code, out, err = run_cli("refine", "--series", "kappa", "--check", "--group", path, *cap)
    assert (code, out) == (2, "")
    assert violation in err


@pytest.mark.parametrize("method", ["centroid", "derivation"])
def test_j5_lex_hole_under_every_method(tmp_path, method):
    # the p = 2 case of the lex-descent defect: --check rejects it under
    # every method, and without --check the broken filter is printed
    path = write_spec(tmp_path, J5)
    args = ("refine", "--series", "kappa", "--method", method, "--group", path)
    code, out, err = run_cli(*args, "--check")
    assert (code, out) == (2, "")
    assert "('lex_hole', (3, 1), (4, 0))" in err
    code, out, err = run_cli(*args)
    assert code == 0, err
    assert json.loads(out)["filter"]["length"] == 4


def test_nameless_group_file_summary_names_path(tmp_path):
    spec = group_to_spec(make_ut(3, 2))
    del spec["name"]
    path = write_spec(tmp_path, spec, "nameless.json")
    code, out, err = run_cli("refine", "--group", path)
    assert code == 0
    assert json.loads(out)["group"] == ""
    assert f"refined gamma of {path} with adjoint" in err


BIG_HEISENBERG = "2," + ",".join(["1"] + ["0"] * 85 + ["1"])  # dim R = 86, degree 258


@pytest.mark.parametrize(
    "args,spec,bad",
    [
        (("series", "--ut", "0", "2"), None, "not 0"),
        (("series", "--ut", "-1", "2"), None, "not -1"),
        (("series", "--ut", str(MAX_DEGREE + 1), "2"), None, f"not {MAX_DEGREE + 1}"),
        (("series", "--ut", "100000", "2"), None, "not 100000"),
        (("series", "--heisenberg", BIG_HEISENBERG), None, "not 258"),
        (("series",), {"p": 2, "degree": 100000, "generators": []}, "not 100000"),
        (("series",), {"p": 2, "degree": 0, "generators": []}, "not 0"),
        (("series",), {"p": 2, "degree": -3, "generators": []}, "not -3"),
    ],
)
def test_degree_out_of_range_fails_fast(tmp_path, capsys, args, spec, bad):
    # the check runs before any degree x degree array (or the ring of a
    # Heisenberg group) is built, so even degree 100000 fails at once
    argv = list(args)
    if spec is not None:
        argv += ["--group", write_spec(tmp_path, spec)]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert bad in err and f"between 1 and {MAX_DEGREE}" in err
    assert "Traceback" not in err
    assert elapsed < 0.5
