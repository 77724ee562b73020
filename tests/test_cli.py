import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidfoq import (Field, Matrix, bosonisation_presentation, serialize_presentation,
                      t_form_presentation)
from braidfoq.graded import GradedSpace, OmegaData
from braidfoq.cli import main
from braidfoq.suite import fixture_e1, fixture_e2


@pytest.fixture()
def e1_file(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text(json.dumps(fixture_e1().to_json()))
    return str(path)


@pytest.fixture()
def e2_file(tmp_path):
    path = tmp_path / "e2.json"
    path.write_text(json.dumps(fixture_e2().to_json()))
    return str(path)


def test_validate_exit_codes(e1_file, tmp_path, capsys):
    assert main(["validate", e1_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is True
    # break the instance: scale one entry
    data = json.loads(open(e1_file).read())
    data["omega"][1][0]["coeffs"][1][0] = "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 1


def test_missing_file_is_usage_error(capsys):
    assert main(["validate", "/nonexistent/nope.json"]) == 2


def test_fuse_decomposition(capsys):
    assert main(["fuse", "--a", "1,0", "--b", "1,0", "--parity", "even"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summands"] == [{"k": 2, "l": 0, "mult": 1},
                                  {"k": 0, "l": 0, "mult": 1}]


def test_dims(capsys):
    assert main(["dims", "--k", "3", "--n", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dims"] == [1, 3, 8, 21]


def test_shift_cover_reduce(e2_file, tmp_path, capsys):
    out = tmp_path / "shifted.json"
    assert main(["shift", "--s", "1", e2_file, "--out", str(out)]) == 0
    shifted = json.loads(out.read_text())
    assert shifted["degrees"] == [-1, 1]
    assert shifted["d"] == 0
    capsys.readouterr()
    assert main(["cover", e2_file]) == 0
    covered = json.loads(capsys.readouterr().out)
    assert covered["degrees"] == [0, 4] and covered["d"] == 4
    assert main(["reduce", e2_file]) == 0
    trace = json.loads(capsys.readouterr().out)
    assert trace["steps"] == [{"kind": "shift", "s": 1}]


def test_trivrel(e1_file, capsys):
    assert main(["trivrel", e1_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] and report["violation_count"] == 0


def test_trivrel_scan_reports_violations(tmp_path, capsys):
    data = fixture_e1().to_json()
    # scale omega[1][0] by zeta: multiply the coefficient vector manually
    from braidfoq import OmegaData

    inst = OmegaData.from_json(data)
    from braidfoq.sampling import mutate_one_entry
    import random

    mutant = mutate_one_entry(random.Random(0), inst)
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(mutant.to_json()))
    code = main(["trivrel", str(path), "--scan"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["violation_count"] == len(report["violations"]) > 0


def test_irreducible(e1_file, capsys):
    assert main(["irreducible", e1_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["irreducible"] is True


def test_present_and_verify_coassoc(e1_file, tmp_path, capsys):
    pres = tmp_path / "boson.json"
    assert main(["present", "--target", "boson", e1_file, "--out", str(pres)]) == 0
    capsys.readouterr()
    assert main(["verify", "--check", "coassoc", str(pres)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True


def test_verify_welldef_bound_guard(e1_file, tmp_path, capsys):
    pres = tmp_path / "boson.json"
    main(["present", "--target", "boson", e1_file, "--out", str(pres)])
    capsys.readouterr()
    assert main(["verify", "--check", "welldef", "--bound", "1", str(pres)]) == 3


def test_verify_welldef_full_with_certificates(e1_file, tmp_path, capsys):
    pres = tmp_path / "boson.json"
    main(["present", "--target", "boson", e1_file, "--out", str(pres)])
    capsys.readouterr()
    certs = tmp_path / "certs.json"
    assert main(["verify", "--check", "welldef", "--bound", "3",
                 "--emit-cert", str(certs), str(pres)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_in_ideal"] is True
    payload = json.loads(certs.read_text())
    assert all(entry["certificate"]["verdict"] == "in_ideal" for entry in payload)


def test_verify_intertwiner(e1_file, tmp_path, capsys):
    pres = tmp_path / "tform.json"
    main(["present", "--target", "tform", e1_file, "--out", str(pres)])
    capsys.readouterr()
    assert main(["verify", "--check", "intertwiner", str(pres)]) == 0


def test_verify_intertwiner_reads_the_document_relations(e1_file, tmp_path, capsys):
    pres = tmp_path / "tform.json"
    main(["present", "--target", "tform", e1_file, "--out", str(pres)])
    capsys.readouterr()
    data = json.loads(pres.read_text())
    data["relations"][data["relation_labels"].index("invariance(0,0)")] = []
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    assert main(["verify", "--check", "intertwiner", str(tampered)]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_verify_intertwiner_needs_t_form_relations(e1_file, tmp_path, capsys):
    pres = tmp_path / "boson.json"
    main(["present", "--target", "boson", e1_file, "--out", str(pres)])
    capsys.readouterr()
    assert main(["verify", "--check", "intertwiner", str(pres)]) == 2
    assert "t-form" in capsys.readouterr().err


def test_verify_intertwiner_needs_meta_over_the_context_field(e1_file, tmp_path, capsys):
    pres = tmp_path / "tform.json"
    main(["present", "--target", "tform", e1_file, "--out", str(pres)])
    capsys.readouterr()
    data = json.loads(pres.read_text())
    e1, f16 = fixture_e1(), Field.cyclotomic(16)
    space = GradedSpace(n=e1.space.n, degrees=e1.space.degrees,
                        zeta=e1.space.zeta.embed_into(f16), field=f16)
    data["meta"] = OmegaData(space=space, d=e1.d,
                             omega=e1.omega.map_entries(lambda s: s.embed_into(f16), f16)).to_json()
    mismatched = tmp_path / "mismatched.json"
    mismatched.write_text(json.dumps(data))
    assert main(["verify", "--check", "intertwiner", str(mismatched)]) == 2
    assert "field" in capsys.readouterr().err


def test_qparam(e2_file, capsys):
    assert main(["qparam", e2_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["q"] == 1.0


def test_solve_from_blocks(tmp_path, capsys):
    blocks = tmp_path / "blocks.json"
    from braidfoq import Field, Matrix

    field = Field.cyclotomic(8)
    blocks.write_text(json.dumps({"0": Matrix(field, [[field.root(7)]]).to_json()}))
    cjson = json.dumps(field.root(1).to_json())
    assert main(["solve", "--degrees", "0,1", "--d", "1", "--blocks", str(blocks),
                 "--field", "cyclo:8", "--zeta", "6", "--c", cjson]) == 0
    produced = json.loads(capsys.readouterr().out)
    assert produced["degrees"] == [0, 1]
    expected = fixture_e1().to_json()
    assert produced["omega"] == expected["omega"]


def test_row_cap_environment_override(e1_file, tmp_path, capsys, monkeypatch):
    pres = tmp_path / "boson.json"
    main(["present", "--target", "boson", e1_file, "--out", str(pres)])
    capsys.readouterr()
    monkeypatch.setenv("BRAIDFOQ_ROW_CAP", "5")
    assert main(["verify", "--check", "welldef", "--bound", "3", str(pres)]) == 3


def _exit_code(argv):
    """main's return value, or the exit code of an argparse usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture()
def boson_file(e1_file, tmp_path, capsys):
    path = tmp_path / "boson.json"
    main(["present", "--target", "boson", e1_file, "--out", str(path)])
    capsys.readouterr()
    return str(path)


def test_row_cap_environment_must_be_an_integer(boson_file, capsys, monkeypatch):
    monkeypatch.setenv("BRAIDFOQ_ROW_CAP", "abc")
    assert _exit_code(["verify", "--check", "welldef", "--bound", "3", boson_file]) == 2
    assert "BRAIDFOQ_ROW_CAP" in capsys.readouterr().err


def test_negative_row_cap_is_usage_error(boson_file, capsys):
    assert _exit_code(["verify", "--check", "welldef", "--row-cap", "-5", boson_file]) == 2


def test_negative_bound_is_usage_error(boson_file, capsys):
    assert _exit_code(["verify", "--check", "welldef", "--bound", "-1", boson_file]) == 2


def test_malformed_fuse_label_is_usage_error(capsys):
    assert _exit_code(["fuse", "--a", "1", "--b", "1,0", "--parity", "even"]) == 2


def test_unknown_field_spec_is_usage_error(capsys):
    assert _exit_code(["suite", "--field", "xx:8"]) == 2
    assert _exit_code(["suite", "--field", "float:inf"]) == 2
    assert "must be positive and finite" in capsys.readouterr().err


def test_suite_bound_below_two_is_usage_error(capsys):
    assert _exit_code(["suite", "--bound", "1"]) == 2


def test_suite_zero_workers_is_usage_error(capsys):
    assert _exit_code(["suite", "--workers", "0"]) == 2


def test_suite_negative_workers_is_usage_error(capsys):
    assert _exit_code(["suite", "--workers", "-3"]) == 2


def test_verify_zero_workers_is_usage_error(boson_file, capsys):
    assert _exit_code(["verify", "--check", "welldef", "--workers", "0", boson_file]) == 2


def test_instance_without_field_is_usage_error(tmp_path, capsys):
    data = fixture_e1().to_json()
    del data["field"]
    path = tmp_path / "nofield.json"
    path.write_text(json.dumps(data))
    assert _exit_code(["validate", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def _approx_e1_document():
    """Fixture E1 over Field.approx(1e-9), each entry its complex value."""
    data = fixture_e1()
    field = Field.approx(1e-9)
    space = GradedSpace(n=data.space.n, degrees=data.space.degrees,
                        zeta=field.from_complex(data.space.zeta.to_complex()), field=field)
    omega = data.omega.map_entries(lambda a: field.from_complex(a.to_complex()), field)
    return OmegaData(space=space, omega=omega, d=data.d).to_json()


# where a non-finite value goes -> the error that the load reports
_NON_FINITE = {"omega": "float scalar must be finite", "zeta": "float scalar must be finite",
               "tolerance": "must be positive and finite"}


@pytest.mark.parametrize("where", list(_NON_FINITE))
def test_non_finite_approx_instance_is_usage_error(where, tmp_path, capsys):
    doc = _approx_e1_document()
    assert _exit_code_on(doc, ["trivrel", "--scan"], tmp_path, capsys)[0] == 0
    if where == "omega":
        doc["omega"][0][1]["re"] = float("inf")
    elif where == "zeta":
        doc["zeta"]["im"] = float("nan")
    else:
        doc["field"]["tolerance"] = float("inf")
    code, err = _exit_code_on(doc, ["trivrel", "--scan"], tmp_path, capsys)
    assert code == 2
    assert _NON_FINITE[where] in err and "Traceback" not in err


def _exit_code_on(doc, argv, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = _exit_code(argv + [str(path)])
    return code, capsys.readouterr().err


_SOLVE = ["solve", "--degrees", "0,0", "--d", "0", "--blocks"]


@pytest.mark.parametrize("blocks", [{"0": "x"}, {"0": [[1]]}, [1, 2]])
def test_malformed_solve_blocks_are_usage_errors(blocks, tmp_path, capsys):
    code, err = _exit_code_on(blocks, _SOLVE, tmp_path, capsys)
    assert code == 2
    assert "malformed solve input" in err


def test_malformed_solve_c_is_usage_error(tmp_path, capsys):
    code, err = _exit_code_on({}, ["solve", "--c", '{"x":1}'] + _SOLVE[1:], tmp_path, capsys)
    assert code == 2
    assert "malformed solve input" in err


def test_non_integer_solve_degrees_are_usage_error(tmp_path, capsys):
    code, err = _exit_code_on({}, ["solve", "--degrees", "a,b", "--d", "0", "--blocks"],
                              tmp_path, capsys)
    assert code == 2
    assert "malformed solve input" in err


@pytest.mark.parametrize("argv", [["dims", "--k", "3", "--n", "0"],
                                  ["dims", "--k", "3", "--n", "1"],
                                  ["dims", "--k", "-2", "--n", "3"],
                                  ["fuse", "--a", "1,0", "--b", "1,0", "--parity", "even",
                                   "--n", "-3"]])
def test_out_of_range_fusion_arguments_are_usage_errors(argv, capsys):
    assert _exit_code(argv) == 2


def test_zeta_with_too_few_coefficients_is_usage_error(tmp_path, capsys):
    data = fixture_e1().to_json()
    data["zeta"]["coeffs"].pop()
    code, err = _exit_code_on(data, ["validate"], tmp_path, capsys)
    assert code == 2
    assert "expected 4 coefficients, got 3" in err and "Traceback" not in err


def _boson_document():
    return json.loads(serialize_presentation(bosonisation_presentation(fixture_e1())))


def test_non_string_relation_label_is_usage_error(tmp_path, capsys):
    doc = _boson_document()
    doc["relation_labels"][0] = 7
    code, err = _exit_code_on(doc, ["verify", "--check", "welldef"], tmp_path, capsys)
    assert code == 2
    assert "relation labels" in err


def test_generator_index_past_n_is_usage_error(tmp_path, capsys):
    doc = _boson_document()
    # the second term of the first relation is Ustar(0,0) * U(0,0)
    doc["relations"][0][1][2][1]["j"] = 2
    code, err = _exit_code_on(doc, ["verify", "--check", "welldef"], tmp_path, capsys)
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize("where", ["generators", "relations", "comult"])
def test_letter_with_wrong_grading_is_usage_error(where, tmp_path, capsys):
    doc = _boson_document()
    if where == "generators":
        letter = doc["generators"][1]
    elif where == "relations":
        letter = doc["relations"][0][1][2][1]
    else:
        letter = doc["comult"]["U(0,1)"][0][1][0][1][0]
    letter["grading"] += 1
    code, err = _exit_code_on(doc, ["verify", "--check", "coassoc"], tmp_path, capsys)
    assert code == 2
    assert "grading" in err


# -- fuzz: mutated documents keep the exit-code contract ---------------------

_INSTANCE_DOCS = [fixture_e1().to_json(), fixture_e2().to_json()]
_F8 = Field.cyclotomic(8)
# the free block of E1, as in test_solve_from_blocks
_BLOCKS_DOCS = [{"0": Matrix(_F8, [[_F8.root(7)]]).to_json()}]
_PRESENTATION_DOCS = [json.loads(serialize_presentation(build(fixture_e1())))
                      for build in (bosonisation_presentation, t_form_presentation)]

_json_values = st.recursive(
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e300, 10 ** 30, -1, 0, 1,
                     2, 2 ** 16, True, None, "x", "", "-7", "1/0", "1" + "0" * 400, [], {}])
    | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=5)


@st.composite
def _mutated(draw, docs):
    """A document with one to six nodes deleted or replaced by arbitrary JSON."""
    doc = json.loads(json.dumps(draw(st.sampled_from(docs))))
    for _ in range(draw(st.integers(1, 6))):
        # walk down from the root, stopping below it at each level with even odds
        parent, key, node = None, None, doc
        while (isinstance(node, (dict, list)) and node
               and (parent is None or draw(st.booleans()))):
            parent = node
            key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                       else range(len(node))))
            node = node[key]
        if parent is None:
            continue
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(_json_values)
    return doc


def _run_on_document(argv, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = _exit_code(argv + [path])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([["validate"], ["irreducible"], ["trivrel"], ["reduce"], ["cover"],
                        ["qparam"], ["shift", "--s", "1"], ["present", "--target", "boson"],
                        ["present", "--target", "tform"], ["present", "--target", "braided"],
                        ["present", "--target", "aof"]]),
       _mutated(_INSTANCE_DOCS))
def test_fuzzed_instance_documents_keep_the_exit_contract(argv, doc):
    _run_on_document(argv, doc)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([["verify", "--check", "coassoc"],
                        ["verify", "--check", "welldef", "--bound", "2"],
                        ["verify", "--check", "intertwiner"]]),
       _mutated(_PRESENTATION_DOCS))
def test_fuzzed_presentation_documents_keep_the_exit_contract(argv, doc):
    _run_on_document(argv, doc)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([[], ["--c", json.dumps(_F8.root(1).to_json())]]),
       _mutated(_BLOCKS_DOCS))
def test_fuzzed_blocks_documents_keep_the_exit_contract(extra, doc):
    _run_on_document(["solve", "--degrees", "0,1", "--d", "1", "--zeta", "6"] + extra
                     + ["--blocks"], doc)


def _approx_solve(tmp_path, capsys, *extra):
    field = Field.approx(1e-10)
    blocks = tmp_path / "blocks.json"
    blocks.write_text(json.dumps({"0": Matrix(field, [[field.from_complex(1.0)]]).to_json()}))
    code = main(["solve", "--field", "float:1e-10", "--degrees", "0,2", "--d", "2",
                 "--blocks", str(blocks), *extra])
    return code, capsys.readouterr().out


def test_solve_in_an_approx_field_reads_plain_numbers(tmp_path, capsys):
    # the default --zeta 1 is read as the value 1, as is an integer or p/q --c
    code, out = _approx_solve(tmp_path, capsys)
    assert code == 0
    solved = tmp_path / "solved.json"
    solved.write_text(out)
    assert main(["validate", str(solved)]) == 0
    capsys.readouterr()
    for c, value in (("1/4", 0.25), ("2", 2.0)):
        code, out = _approx_solve(tmp_path, capsys, "--c", c)
        assert code == 0
        assert json.loads(out)["c"] == {"kind": "float", "re": value, "im": 0.0}
