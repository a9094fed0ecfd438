import inspect
import json
import pathlib
import shlex
import time

import pytest

from theta2kit import msset as M
from theta2kit import nerves as N
from theta2kit import twocat as T
from theta2kit.cli import CHECKS, build_parser, main, parse_object


# ---------------------------------------------------------------------------
# the object mini-grammar


def test_parse_object_grammar():
    assert len(parse_object("[2|1,0]").objects) == 3
    assert len(parse_object("[3]").objects) == 4
    assert len(parse_object("C2").hom_at("0", "1").objects) == 2
    assert len(parse_object("I").objects) == 2
    S = parse_object("Sigma [1]")
    assert set(S.objects) == {"bot", "top"}
    assert len(parse_object("Sigma I").hom_at("bot", "top").objects) == 2


def test_parse_object_rejects_garbage():
    from theta2kit.cli import SpecError

    with pytest.raises(SpecError):
        parse_object("wibble")
    with pytest.raises(SpecError):
        parse_object("Sigma [1|1]")


# ---------------------------------------------------------------------------
# nerve command


def test_nerve_stdout_json(capsys):
    assert main(["nerve", "--object", "[1|0]", "--bound", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    X = M.msset_from_json(data)
    assert M.find_iso(X, M.standard_simplex(1, bound=3)) is not None


def test_nerve_out_file_matches_library(tmp_path):
    out = tmp_path / "nerve.json"
    assert main(
        ["nerve", "--object", "C2", "--marking", "duskin", "--bound", "4",
         "--out", str(out)]
    ) == 0
    X = M.msset_from_json(json.loads(out.read_text()))
    Y = N.duskin_nerve(T.cell(2), bound=4)
    assert X.gens == Y.gens and X.marked == Y.marked


def test_nerve_is_deterministic(capsys):
    main(["nerve", "--object", "[2|1,0]", "--bound", "3"])
    first = capsys.readouterr().out
    main(["nerve", "--object", "[2|1,0]", "--bound", "3"])
    assert capsys.readouterr().out == first


def test_bound_defaults_to_the_library_bound_whatever_the_environment(capsys, monkeypatch):
    # --bound is the one way to set the bound
    monkeypatch.setenv("THETA2KIT_BOUND", "3")
    assert main(["nerve", "--object", "[1|0]"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert M.msset_from_json(data).bound == M.DEFAULT_BOUND == 5


def test_bad_object_spec_exits_2(capsys):
    assert main(["nerve", "--object", "nope"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("spec, operation", [
    ("Sigma [3000]", "ordinal"), ("[1|3000]", "theta2_object"),
    ("[3000]", "theta2_object"), ("Sigma [99999999999]", "ordinal"),
    ("[99999999999]", "theta2_object"), ("[300]", "theta2_object"),
])
def test_object_spec_too_large_to_build_exits_3(spec, operation, capsys):
    t0 = time.perf_counter()
    assert main(["nerve", "--object", spec, "--bound", "2"]) == 3
    assert time.perf_counter() - t0 < 1
    assert f"in {operation}" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["[0]", "[3]", "[40]", "[1|2]", "[2|1,0]", "[3|2,0,2]",
                                  "[2|10,10]", "Sigma [4]", "Sigma [-1]", "C2", "I"])
def test_parse_object_charges_the_tables_it_builds(spec, monkeypatch):
    guards = []

    class Recording(M._Guard):
        def __init__(self, *args):
            super().__init__(*args)
            guards.append(self)

    monkeypatch.setattr(M, "_Guard", Recording)
    D = parse_object(spec)
    if spec.startswith("Sigma"):
        built = len(D.hom[("bot", "top")].compose) if ("bot", "top") in D.hom else 0
    elif spec in ("C2", "I"):
        built = None  # built from fixed tables, so nothing is charged
    else:  # one slice per (i, j), shared by every triple that holds it
        triples = D.hcompose1._keys  # (i, j, l) -> (ks[i:j], ks[j:l])
        slices = {t[:2]: s for t, (s, _) in triples.items()}
        posets = {id(H): len(H.compose) for H in D.hom.values()}
        built = len(triples) + sum(map(len, slices.values())) + sum(posets.values())
    assert (guards[-1].count if guards else None) == built


def test_parse_object_builds_a_hundred_object_chain():
    # refused at exit 3 while each triple was charged its own slices
    assert len(parse_object("[100]").objects) == 101


# ---------------------------------------------------------------------------
# suspend command


def test_suspend_round_trip(tmp_path, capsys):
    src = tmp_path / "x.json"
    src.write_text(json.dumps(M.msset_to_json(M.standard_simplex(0, bound=3))))
    assert main(["suspend", "--input", str(src)]) == 0
    SX = M.msset_from_json(json.loads(capsys.readouterr().out))
    assert M.find_iso(SX, M.standard_simplex(1, bound=3)) is not None


def test_suspend_missing_file_exits_2(tmp_path, capsys):
    assert main(["suspend", "--input", str(tmp_path / "absent.json")]) == 2


def test_suspend_malformed_file_exits_2(tmp_path, capsys):
    # exit code 1 would claim a failed verification
    data = M.msset_to_json(M.standard_simplex(1, bound=3))
    del data["gens"]
    src = tmp_path / "x.json"
    src.write_text(json.dumps(data))
    assert main(["suspend", "--input", str(src)]) == 2
    assert "gens" in capsys.readouterr().err


def test_suspend_of_vertices_given_as_a_str_exits_2(tmp_path, capsys):
    # "01" loaded as the vertices 0 and 1
    data = M.msset_to_json(M.standard_simplex(1, bound=3))
    data["gens"]["0"] = "01"
    src = tmp_path / "x.json"
    src.write_text(json.dumps(data))
    assert main(["suspend", "--input", str(src)]) == 2
    assert "must be a JSON array" in capsys.readouterr().err


def test_suspend_of_faces_for_a_vertex_exits_2(tmp_path, capsys):
    data = M.msset_to_json(M.standard_simplex(1, bound=3))
    data["faces"]["0"] = [{"gen": "0", "word": []}, {"gen": "1", "word": []}]
    src = tmp_path / "x.json"
    src.write_text(json.dumps(data))
    assert main(["suspend", "--input", str(src)]) == 2
    assert "faces listed for 0" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [True, "0", {}])
def test_suspend_of_a_face_word_entry_that_is_not_an_int_exits_2(entry, tmp_path, capsys):
    # true used to exit 0 and write its output, "0" and {} to exit 1 with
    # a TypeError traceback
    data = M.msset_to_json(N.duskin_nerve(T.cell(2), bound=3))
    face = next(f for _, fs in sorted(data["faces"].items()) for f in fs
                if f["word"] == [0])
    face["word"] = [entry]
    src = tmp_path / "x.json"
    src.write_text(json.dumps(data))
    assert main(["suspend", "--input", str(src)]) == 2
    assert "face word entry" in capsys.readouterr().err


def _suspend_exit(data, tmp_path):
    src = tmp_path / "x.json"
    src.write_text(json.dumps(data))
    return main(["suspend", "--input", str(src), "--out", str(tmp_path / "out.json")])


def test_suspend_of_an_int_vertex_exits_2(tmp_path, capsys):
    # it loaded, and suspend_marked then raised TypeError on "^" + 1
    data = {"schema": "msset/1", "bound": 2, "gens": {"0": [1, "a"], "1": []},
            "faces": {}, "marked": []}
    assert _suspend_exit(data, tmp_path) == 2
    assert "msset/1: id 1 is not a string" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_suspend_of_a_simplex_with_a_wrong_face_exits_2(tmp_path, capsys):
    # it exited 0 and wrote a suspension that validate_msset rejects
    data = M.msset_to_json(M.standard_simplex(2, bound=3))
    data["faces"]["012"][0] = {"gen": "01", "word": []}
    assert _suspend_exit(data, tmp_path) == 2
    assert "simplicial identity fails" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_suspend_of_a_sparse_file_with_a_huge_bound(tmp_path):
    # it ran past 20 s: suspend_marked set a key for each of the 10**8
    # dimensions below the bound
    data = {"schema": "msset/1", "bound": 100_000_000, "gens": {"0": ["a"]},
            "faces": {}, "marked": []}
    t0 = time.perf_counter()
    assert _suspend_exit(data, tmp_path) == 0
    assert time.perf_counter() - t0 < 1
    out = json.loads((tmp_path / "out.json").read_text())
    assert out["gens"] == {"0": ["bot", "top"], "1": ["^a"]}


# ---------------------------------------------------------------------------
# lmap command


def test_lmap_writes_three_cross_referenced_files(tmp_path):
    prefix = tmp_path / "vs2"
    assert main(
        ["lmap", "--kind", "vertical-segal", "--k", "2", "--bound", "4",
         "--out", str(prefix)]
    ) == 0
    src = json.loads((tmp_path / "vs2.source.json").read_text())
    tgt = json.loads((tmp_path / "vs2.target.json").read_text())
    mp = json.loads((tmp_path / "vs2.map.json").read_text())
    from theta2kit.cli import _content_hash

    assert mp["source_hash"] == _content_hash(src)
    assert mp["target_hash"] == _content_hash(tgt)
    X = M.msset_from_json(src)
    Y = M.msset_from_json(tgt)
    f = M.MSSetMap(
        X, Y,
        {g: (v["gen"], tuple(v["word"])) for g, v in mp["assignment"].items()},
    )
    assert M.validate_map(f).ok
    assert M.is_mono(f)


@pytest.mark.parametrize("ks_args, m, ks", [(["--ks", "1,0"], 2, (1, 0)), ([], 0, ())],
                         ids=["ks 1,0", "no ks"])
def test_lmap_horizontal_segal_takes_m_from_its_ks(ks_args, m, ks, tmp_path):
    from theta2kit import theta as TH
    from theta2kit.cli import _map_to_json

    assert main(["lmap", "--kind", "horizontal-segal", *ks_args, "--bound", "3",
                 "--out", str(tmp_path / "hs")]) == 0
    f = TH.apply_L_map(TH.horizontal_segal(m, ks), 3)
    written = [json.loads((tmp_path / f"hs.{part}.json").read_text())
               for part in ("source", "target", "map")]
    assert written == [M.msset_to_json(f.source), M.msset_to_json(f.target), _map_to_json(f)]


def test_lmap_has_no_m_flag(tmp_path, capsys):
    # m is the number of --ks entries, so no second flag can disagree with it
    out = tmp_path / "x"
    assert main(["lmap", "--kind", "horizontal-segal", "--m", "2", "--ks", "1,0",
                 "--out", str(out)]) == 2
    assert "unrecognized arguments: --m 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_lmap_of_presentation_file(tmp_path, capsys):
    from theta2kit import theta as TH

    pres = tmp_path / "w.json"
    W = TH.representable(T.Theta2Shape(1, (0,)))
    pres.write_text(json.dumps(TH.presentation_to_json(W)))
    assert main(["lmap", "--presentation", str(pres), "--bound", "3"]) == 0
    X = M.msset_from_json(json.loads(capsys.readouterr().out))
    assert M.find_iso(X, M.standard_simplex(1, bound=3)) is not None


def test_lmap_of_malformed_presentation_exits_2(tmp_path, capsys):
    # exit code 1 would claim a failed verification
    pres = tmp_path / "w.json"
    pres.write_text(json.dumps({"schema": "theta/1"}))
    assert main(["lmap", "--presentation", str(pres), "--bound", "3"]) == 2
    assert "cells" in capsys.readouterr().err


def test_lmap_of_presentation_with_object_images_as_a_list_exits_2(tmp_path, capsys):
    # [["0", "0"]] loaded as {"0": "0"}
    from theta2kit import theta as TH

    point = T.Theta2Shape(0, ())
    F = T.shape_functor(point, point, [0])
    W = TH.Theta2Presentation((TH.BoxCell(point),) * 2, ((0, 1, F, (0,)),))
    data = TH.presentation_to_json(W)
    data["arrows"][0]["functor"]["on_objects"] = [["0", "0"]]
    pres = tmp_path / "w.json"
    pres.write_text(json.dumps(data))
    assert main(["lmap", "--presentation", str(pres), "--bound", "3"]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_lmap_of_presentation_with_a_stray_functor_table_exits_2(tmp_path, capsys):
    from theta2kit import theta as TH

    data = TH.presentation_to_json(TH.vertical_segal(2).source)
    hom = data["arrows"][0]["functor"]["hom"]
    hom["5|6"] = hom["0|1"]
    pres = tmp_path / "w.json"
    pres.write_text(json.dumps(data))
    assert main(["lmap", "--presentation", str(pres), "--bound", "3"]) == 2
    assert "hom(5,6): not a nonempty hom of the source" in capsys.readouterr().err


def test_lmap_of_a_huge_level_exits_3(tmp_path, capsys):
    # Delta[10**6] was built in full, and ran out of memory
    from theta2kit import theta as TH

    data = TH.presentation_to_json(TH.representable(T.Theta2Shape(1, (0,))))
    data["cells"][0]["level"] = 10**6
    pres = tmp_path / "w.json"
    pres.write_text(json.dumps(data))
    assert main(["lmap", "--presentation", str(pres), "--bound", "2"]) == 3
    assert "in apply_L at dimension 0" in capsys.readouterr().err


@pytest.mark.parametrize("args, stray", [
    (["--kind", "horizontal-completeness", "--ks", "1,0", "--k", "7"], "--k --ks"),
    (["--kind", "vertical-segal", "--ks", "1,0"], "--ks"),
    (["--kind", "horizontal-segal", "--k", "1"], "--k"),  # the default value, given
    (["--presentation", "w.json", "--kind", "diagonal-segal"], "--kind"),
    (["--presentation", "w.json", "--k", "2"], "--k"),
])
def test_lmap_flag_the_kind_does_not_take_exits_2(args, stray, tmp_path, capsys):
    # the first four exited 0, the flags ignored
    assert main(["lmap", *args, "--bound", "2", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: theta2kit lmap ")
    assert f"takes no {stray}\n" in err
    assert list(tmp_path.iterdir()) == []


def test_lmap_reads_a_kinds_flags_off_its_builder(monkeypatch, tmp_path):
    # a kind added to theta needs no CLI edit: its builder's parameters
    # are the flags it takes
    from theta2kit import theta as TH

    builder = TH.cofibration_builder

    def diagonal_segal(ks):
        return TH.horizontal_segal(len(ks), ks)

    monkeypatch.setattr(TH, "cofibration_builder", lambda kind: (
        diagonal_segal if kind == "diagonal_segal" else builder(kind)))
    out = str(tmp_path / "d")
    assert main(["lmap", "--kind", "diagonal-segal", "--ks", "1", "--bound", "2",
                 "--out", out]) == 0
    assert main(["lmap", "--kind", "diagonal-segal", "--k", "2", "--out", out]) == 2


def test_lmap_without_kind_or_presentation_exits_2(capsys):
    assert main(["lmap"]) == 2


def test_lmap_of_unknown_kind_exits_2(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["lmap", "--kind", "diagonal-segal", "--out", str(out)]) == 2
    assert "unknown kind 'diagonal_segal'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("level_map", [[0.5, 1], [False, True]])
def test_lmap_of_non_int_level_map_exits_2(level_map, tmp_path, capsys):
    # [0.5, 1] was loaded, and L of it raised a bare KeyError
    from theta2kit import theta as TH

    point = T.Theta2Shape(0, ())
    cells = (TH.BoxCell(point, 1),) * 2
    F = TH.shape_functor(point, point, [0])
    data = TH.presentation_to_json(TH.Theta2Presentation(cells, ((0, 1, F, (0, 1)),)))
    data["arrows"][0]["level_map"] = level_map
    pres = tmp_path / "w.json"
    pres.write_text(json.dumps(data))
    assert main(["lmap", "--presentation", str(pres), "--bound", "3"]) == 2
    assert "level map entry" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify command


def test_verify_eq3_pushout(capsys):
    assert main(["verify", "eq3-pushout"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_simplicial_identities_json(capsys):
    assert main(["verify", "simplicial-identities", "--fuzz", "40",
                 "--seed", "7", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["suite"] == "simplicial-identities"


def test_verify_simplicial_identities_ez_check_reads_only_ez_cases(monkeypatch, capsys):
    monkeypatch.setattr(M, "validate_msset", lambda X: M.Report("msset", ["broken"]))
    assert main(["verify", "simplicial-identities", "--fuzz", "10", "--json"]) == 1
    checks = {c["name"]: c["ok"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["10 fuzz cases validate (seed=0)"] is False
    assert checks["10 degeneracy words stay in normal form"] is True


def test_verify_hom_bijection_small_grid(capsys):
    assert main(["verify", "hom-bijection", "--max-m", "1", "--max-k", "1",
                 "--max-j", "1"]) == 0


def test_verify_hom_bijection_names_the_bounds_it_used(capsys):
    assert main(["verify", "hom-bijection", "--max-m", "1", "--max-k", "2",
                 "--max-j", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in data["checks"]] == [
        "all grid cells agree (shapes=4, i<=1, j<=2)"
    ]


@pytest.mark.parametrize("flag", ["--max-m", "--max-k", "--max-j"])
def test_verify_hom_bijection_negative_bound_exits_2(flag, capsys):
    # an empty grid would pass and exit 0
    assert main(["verify", "hom-bijection", flag, "-1"]) == 2
    assert flag in capsys.readouterr().err


def test_verify_simplicial_identities_negative_fuzz_exits_2(capsys):
    # no fuzz case would run, and the suite would pass and exit 0
    assert main(["verify", "simplicial-identities", "--fuzz", "-5"]) == 2
    assert "--fuzz" in capsys.readouterr().err


def test_verify_unknown_suite_exits_2(capsys):
    assert main(["verify", "nonesuch"]) == 2


# the tier-1 size of each check; a row not named runs at its CLI defaults
TIER1_SIZES = {"hom-bijection": {"max_m": 2}}


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.name)
def test_every_paper_check_passes_at_its_tier1_size(check):
    assert check.statement
    params = dict(check.params) | TIER1_SIZES.get(check.name, {})
    # the row's parameters are exactly its function's
    assert list(inspect.signature(check.run).parameters) == list(dict(check.params))
    entries = check.run(**params)
    assert entries and all(ok for _, ok, _ in entries), entries


@pytest.mark.parametrize("argv", [
    ["verify", "eq3-pushout", "--fuzz", "5"],
    ["verify", "eq3-pushout", "--max-m", "9"],
    ["verify", "hom-bijection", "--seed", "1"],
    ["verify", "l-representables", "--max-j", "1"],
    ["verify", "simplicial-identities", "--max-k", "1"],
])
def test_verify_flag_the_check_does_not_take_exits_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    # reported against the check's own usage, not the top-level one
    assert err.startswith(f"usage: theta2kit verify {argv[1]} "), err


def test_verify_help_lists_each_check_and_its_statement(capsys):
    assert main(["verify", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for check in CHECKS:
        assert check.name in text and check.statement in text


def test_readme_commands_parse():
    # each command of README's "Command line" block, parsed but not run
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("theta2kit ")]
    assert {argv[1] for argv in commands if argv[0] == "verify"} == {c.name for c in CHECKS}
    for argv in commands:
        build_parser().parse_args(argv)


@pytest.mark.parametrize("marking", ["rs", "duskin", "scaled"])
def test_nerve_negative_bound_exits_2(marking, capsys):
    assert main(["nerve", "--object", "[1|1]", "--marking", marking,
                 "--bound", "-1"]) == 2
    assert "bound" in capsys.readouterr().err
