"""CLI contract: exit codes, JSON output, determinism, file formats."""

import hashlib
import json
import subprocess
import sys

import pytest

from causetlab import HistorySpace
from causetlab.modelio import (
    ModelFileError,
    causet_from_data,
    load_json_file,
    model_from_data,
    parse_event,
)

CLI = [sys.executable, "-m", "causetlab"]


def run_cli(*args: str):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=600
    )


# -- model files --------------------------------------------------------------


def test_load_anti2_perf(data_dir):
    model = model_from_data(load_json_file(str(data_dir / "anti2_perf.json")))
    assert model.causet.elements == ("x", "y")
    assert model.measure.weight_strings() == {"00": "1/2", "11": "1/2"}
    assert model.dom.is_canonical


def test_bare_causet_data_accepted():
    causet = causet_from_data({"elements": ["u", "v"], "relations": [["u", "v"]]})
    assert causet.relation_pairs() == [("u", "v")]


def test_event_spec_forms(anti2):
    space = HistorySpace(anti2, 2)
    assert parse_event(space, {"x": 1}) == space.cylinder({"x": 1})
    assert parse_event(space, ["00", "11"]) == space.event_from_histories(["00", "11"])
    assert parse_event(space, '{"x": 1}') == space.cylinder({"x": 1})
    assert parse_event(space, '["00", "11"]') == space.event_from_histories(["00", "11"])
    with pytest.raises(ModelFileError):
        parse_event(space, 17)


def test_explicit_dom_in_model_file(tmp_path):
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps({
        "causet": {"elements": ["x", "y"], "relations": []},
        "alphabet": 2,
        "dom": {
            json.dumps({"x": 1}): ["x", "y"],  # inflated but axiom-consistent? no: breaks axiom 3
        },
        "measure": "uniform",
    }))
    # an explicit map this sparse cannot satisfy the axioms; the model must refuse
    from causetlab import DomAxiomError

    with pytest.raises(DomAxiomError):
        model_from_data(load_json_file(str(path)))


def test_random_measure_in_model_file(tmp_path):
    path = tmp_path / "random.json"
    path.write_text(json.dumps({
        "causet": {"elements": ["x", "y"], "relations": []},
        "measure": {"random": {"seed": 3, "denominator_bound": 10}},
    }))
    m1 = model_from_data(load_json_file(str(path)))
    m2 = model_from_data(load_json_file(str(path)))
    assert m1.measure.weights == m2.measure.weights
    assert sum(m1.measure.weights) == 1


# -- exit codes ---------------------------------------------------------------------


def test_check_so2_exits_1_with_witness(data_dir):
    proc = run_cli("check", "--model", str(data_dir / "anti2_perf.json"),
                   "--principle", "so2")
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["verdict"]["satisfied"] is False
    witness = data["verdict"]["witnesses"][0]
    assert witness["screener"] == ["00", "10", "01", "11"]
    assert (witness["lhs"], witness["rhs"]) == ("1/2", "1/4")
    assert data["conventions"]["full_specification_subset"].startswith("non-strict")


def test_check_all_on_satisfied_model_exits_0(data_dir):
    proc = run_cli("check", "--model", str(data_dir / "diamond_uniform.json"))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["matrix"]["bits"] == "1111"


def test_validate_cyclic_exits_2(data_dir):
    proc = run_cli("validate", "--model", str(data_dir / "cyclic.json"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "cycle" in proc.stderr


def test_validate_good_model_exits_0(data_dir):
    proc = run_cli("validate", "--model", str(data_dir / "diamond_uniform.json"))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert ["p", "t"] in data["causet"]["relations"]


@pytest.mark.parametrize("data, key", [
    ({"elements": ["x", "y"], "dom": {'["0Z"]': ["x"]}, "measure": {"weights": {"0q": 1}}}, "0Z"),
    ({"causet": {"elements": ["x", "y"]}, "measure": {"weights": {"0q": 1}}}, "0q"),
    ({"elements": ["x", "y"], "alphabet": "2"}, None),
], ids=["dom-key", "weights-key", "alphabet"])
def test_validate_reads_the_dom_and_measure_of_a_model(tmp_path, capsys, data, key):
    # `check` on these files exits 2; `validate` must not call them ok
    from causetlab.cli import main

    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--model", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    if key:
        assert err.startswith(f"causetlab validate: history key {key!r} uses a value outside the alphabet")
    assert main(["check", "--model", str(path)]) == 2


def test_validate_builds_no_space_for_a_bare_causet(tmp_path, monkeypatch, capsys):
    # 20 elements: a binary space of 2**20 histories is past the limits
    from causetlab.cli import main
    from causetlab.histories import HistorySpace

    def no_space(*args, **kwargs):
        raise AssertionError("validate built a history space for a bare causet")

    monkeypatch.setattr(HistorySpace, "__init__", no_space)
    elements = [f"e{i}" for i in range(20)]
    for data in ({"elements": elements}, {"causet": {"elements": elements}}):
        path = tmp_path / "causet.json"
        path.write_text(json.dumps(data))
        assert main(["validate", "--model", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["causet"]["elements"] == elements


def test_missing_file_exits_2(tmp_path):
    proc = run_cli("validate", "--model", str(tmp_path / "nope.json"))
    assert proc.returncode == 2
    assert proc.stderr.strip()


def test_bad_flag_exits_2(data_dir):
    proc = run_cli("check", "--model", str(data_dir / "diamond_uniform.json"),
                   "--principle", "so9")
    assert proc.returncode == 2


def test_bad_weights_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "causet": {"elements": ["x"], "relations": []},
        "measure": {"weights": {"0": "1/3"}},
    }))
    proc = run_cli("check", "--model", str(path))
    assert proc.returncode == 2


@pytest.mark.parametrize("data, message", [
    ({"causet": 5}, "causet must be an object"),
    ({"elements": ["a", "b"], "relations": [1]}, "relations must be a list of [label, label] pairs"),
    ({"elements": ["a"], "relations": 3}, "relations must be a list of [label, label] pairs"),
    ({"elements": [["a"]]}, "elements must be a list of strings"),
    ({"elements": ["a"], "dom": {'["0"]': 5}}, "a region must be a string or a list of labels"),
    ({"elements": "ab"}, "elements must be a list of strings"),
    ({"elements": [1, 2]}, "elements must be a list of strings"),
    (None, "--partition must be a JSON list of events"),
], ids=["causet-int", "relation-int", "relations-int", "element-list", "dom-region-int", "elements-str",
        "elements-int", "partition-int"])
def test_malformed_input_is_a_usage_error(tmp_path, data_dir, capsys, data, message):
    # exit 1 means violations were reported, so a malformed input exits 2
    from causetlab.cli import main

    if data is None:
        command = "ccs"
        argv = ["ccs", "--model", str(data_dir / "anti2_perf.json"), "--a", '{"x": 1}', "--b", '{"y": 1}',
                "--partition", "5"]
    else:
        command = "check"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        argv = ["check", "--model", str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"causetlab {command}: {message}")


@pytest.mark.parametrize("dom", [
    {'["00"]': ["x", "y"], '{"x": 0, "y": 0}': ["x"]},
    {'["00", "11"]': ["x", "y"], '["11", "00"]': ["x"]},
], ids=["keys-and-cylinder", "reordered-keys"])
def test_a_dom_map_naming_one_event_twice_is_refused(tmp_path, capsys, dom):
    # JSON keeps both keys; read into one event, the last would win unseen
    from causetlab.cli import main

    path = tmp_path / "model.json"
    path.write_text(json.dumps({"elements": ["x", "y"], "dom": dom}))
    assert main(["check", "--force", "--model", str(path)]) == 2
    out, err = capsys.readouterr()
    first, second = dom
    assert out == ""
    assert err.startswith(f"causetlab check: dom map names one event twice: {first!r} and {second!r}")


@pytest.mark.parametrize("data, argv, key", [
    ({"elements": ["x", "y"], "measure": {"weights": {"0z": 1}}}, ["check"], "0z"),
    ({"elements": ["x", "y"], "dom": {'["0Z"]': ["x"]}}, ["check"], "0Z"),
    ({"elements": ["x", "y"]}, ["ccs", "--a", '["0x"]', "--b", '{"y": 1}'], "0x"),
], ids=["weights-key", "dom-key", "ccs-event"])
def test_a_history_key_with_a_foreign_character_is_named(tmp_path, capsys, data, argv, key):
    from causetlab.cli import main

    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    assert main([*argv, "--model", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"causetlab {argv[0]}: history key {key!r} uses a value outside the alphabet")


@pytest.mark.parametrize("corrupt, message", [
    (lambda state: {k: v for k, v in state.items() if k != "last_completed_index"}, "last_completed_index"),
    (lambda state: [state], "must hold a JSON object"),
    (lambda state: {**state, "last_completed_index": "x"}, "last_completed_index must be an integer"),
    (lambda state: {**state, "last_completed_index": True}, "last_completed_index must be an integer"),
    (lambda state: {**state, "models": "x"}, "models must be an integer"),
    (lambda state: {**state, "truth_table": ["1111"]}, "truth_table must map names to integers"),
    (lambda state: {**state, "tags_histogram": {"tag": 1.5}}, "tags_histogram must map names to integers"),
], ids=["no-index", "list", "index-str", "index-bool", "models-str", "truth-table-list", "tags-float"])
def test_malformed_checkpoint_is_a_usage_error(tmp_path, capsys, corrupt, message):
    from causetlab.cli import main

    path = tmp_path / "hunt.ckpt"
    argv = ["hunt", "--max-elements", "2", "--checkpoint", str(path)]
    assert main(argv) == 0
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    capsys.readouterr()
    assert main(argv + ["--resume"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("causetlab hunt: checkpoint") and message in err


@pytest.mark.parametrize("alphabet", [2.5, True, "2"])
def test_non_integer_alphabet_exits_2(tmp_path, alphabet):
    path = tmp_path / "alphabet.json"
    path.write_text(json.dumps({"causet": {"elements": ["x"], "relations": []}, "alphabet": alphabet}))
    proc = run_cli("check", "--model", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"causetlab check: alphabet must be an integer: {alphabet!r}\n"


@pytest.mark.parametrize("bound", [True, 2.5, -1, "7"])
def test_bad_denominator_bound_exits_2(tmp_path, bound):
    path = tmp_path / "random.json"
    path.write_text(json.dumps({
        "causet": {"elements": ["x"], "relations": []},
        "measure": {"random": {"seed": 7, "denominator_bound": bound}},
    }))
    proc = run_cli("check", "--model", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        f"causetlab check: denominator_bound must be a non-negative integer: {bound!r}\n"
    )


@pytest.mark.parametrize("measure", [{"random": 5}, {"weights": 5}, {"weights": {"0": [1]}}])
def test_unreadable_measure_exits_2(tmp_path, measure):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps({"causet": {"elements": ["x"], "relations": []}, "measure": measure}))
    proc = run_cli("check", "--model", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("causetlab check: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("weight", [True, False])
def test_boolean_weight_exits_2(tmp_path, weight):
    # Fraction(True) is 1, so {"0": true, "1": false} would read as a valid measure
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({
        "causet": {"elements": ["x"], "relations": []},
        "measure": {"weights": {"0": weight, "1": not weight}},
    }))
    proc = run_cli("check", "--model", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f'causetlab check: weight of \'0\' must be a number or a "p/q" string: {weight!r}\n'
    )


def test_numeric_and_string_weights_still_load(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({
        "causet": {"elements": ["x"], "relations": []},
        "measure": {"weights": {"0": 0.25, "1": "3/4"}},
    }))
    proc = run_cli("check", "--model", str(path))
    assert proc.returncode == 0


@pytest.mark.parametrize("cap", ["region=2.5", "region=true", "region", "algebra=x"])
def test_non_integer_cap_exits_2(data_dir, cap):
    proc = run_cli("check", "--model", str(data_dir / "anti2_perf.json"), "--caps", cap)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"causetlab check: cap {cap!r} must be a non-negative integer\n"


@pytest.mark.parametrize("sizes", [
    ["--max-elements", "0"],
    ["--max-elements", "-3"],
    ["--max-elements", "9", "--max-product-elements", "1"],
    ["--max-elements", "2", "--max-product-elements", "0"],
    ["--max-elements", "2", "--max-product-elements", "8"],
])
def test_theorems_rejects_sizes_before_enumerating(sizes, monkeypatch, capsys):
    import causetlab.theorems as theorems
    from causetlab.cli import main

    def no_enumeration(n, *args, **kwargs):
        raise AssertionError("enumerated before the sizes were checked")

    monkeypatch.setattr(theorems, "enumerate_causets", no_enumeration)
    assert main(["theorems", *sizes]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("causetlab theorems: max_")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, argv, spied, message", [
    ("hunt", ["--max-elements", "7", "--alphabet", "8", "--workers", "1"], "causetlab.hunter._representatives",
     "history space too large"),
    ("theorems", ["--max-elements", "7", "--alphabet", "1"], "causetlab.theorems.region_identity_suite",
     "alphabet_size must be at least 2"),
    ("theorems", ["--max-elements", "7", "--alphabet", "17"], "causetlab.theorems.region_identity_suite",
     "alphabet_size above 16 not supported by history keys"),
], ids=["hunt-8-pow-7", "theorems-alphabet-1", "theorems-alphabet-17"])
def test_alphabet_refused_before_any_work(command, argv, spied, message, monkeypatch, capsys):
    # the history space's own limits, checked at the largest size a run
    # would build before it enumerates or checks anything
    from causetlab.cli import main

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the alphabet was checked")

    monkeypatch.setattr(spied, no_work)
    assert main([command, *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"causetlab {command}: {message}\n"


@pytest.mark.parametrize("command, extra", [
    ("check", ["--principle", "all"]),
    ("check", ["--principle", "so1"]),
    ("check", ["--principle", "so2"]),
    ("replicate", []),
], ids=["check-all", "check-so1", "check-so2", "replicate"])
@pytest.mark.parametrize("omega_mass", [
    lambda mass: mass + 1,
    # a false zero turns the one screener of every pair here into a vacuous pass
    lambda mass: 0,
], ids=["off-by-one", "false-zero"])
def test_internal_consistency_failure_exits_3(command, extra, omega_mass, data_dir, monkeypatch,
                                              capsys):
    # a partial-sum table that disagrees with the history masses is an
    # implementation bug, not a usage error: every decision is replayed
    # without the tables where it is made, and the replay must catch it
    import causetlab.cli as cli

    real = cli.load_model

    def tampered(*args, **kwargs):
        model = real(*args, **kwargs)
        table = model.measure._tables[0]
        table[-1] = omega_mass(table[-1])  # mass(Omega), the screener of every pair here
        return model

    monkeypatch.setattr(cli, "load_model", tampered)
    code = cli.main([command, "--model", str(data_dir / "anti2_perf.json"), *extra])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith(f"causetlab {command}: internal consistency failure: ")
    assert "differ from the history masses" in err


@pytest.mark.parametrize("truncated", [False, True])
def test_replication_step_failure_after_an_exact_precheck_exits_3(truncated, data_dir,
                                                                  monkeypatch, capsys):
    # steps 1-2 follow from an untruncated canonical SO1 precheck, so forcing
    # that precheck to pass on a model violating SO1 exposes a bug (exit 3);
    # after a truncated precheck the step failures are findings (exit 1)
    import causetlab.principles as principles
    from causetlab.cli import main

    monkeypatch.setattr(principles, "_eval_family",
                        lambda *args: (truncated, principles._FamilyOutcome()))
    code = main(["replicate", "--model", str(data_dir / "anti2_perf.json")])
    out, err = capsys.readouterr()
    if truncated:
        assert code == 1 and err == ""
        (pair,) = [p for p in json.loads(out)["pairs"] if p["region_a"] and p["region_b"]]
        assert [len(s["failures"]) > 0 for s in pair["steps"]] == [True, True, False]
    else:
        assert code == 3 and out == ""
        assert err.startswith("causetlab replicate: internal consistency failure: ")


# -- command behaviors -----------------------------------------------------------------


def test_regions_pair_output(data_dir):
    proc = run_cli("regions", "--model", str(data_dir / "diamond_uniform.json"),
                   "--a", "a", "--b", "b")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["spacelike"] is True
    assert data["mutual_past"] == ["p"]
    assert data["truncated_joint_past"] == ["p"]
    assert data["crucial_identity"]["holds"] is True


def test_regions_unary_only(data_dir):
    proc = run_cli("regions", "--model", str(data_dir / "diamond_uniform.json"), "--a", "p")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["complement_a"] == []
    assert "crucial_identity" not in data


def test_regions_works_beyond_model_scale(tmp_path):
    # region algebra should not require a buildable history space
    elements = [f"n{i}" for i in range(24)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "elements": elements,
        "relations": [[elements[i], elements[i + 1]] for i in range(23)],
    }))
    proc = run_cli("regions", "--model", str(path), "--a", "n0", "--b", "n23")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["spacelike"] is False
    assert data["closure_a"] == elements  # chain bottom closes to everything


def test_fullspec_counts(data_dir):
    proc = run_cli("fullspec", "--model", str(data_dir / "diamond_uniform.json"),
                   "--region", "a,b")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["count"] == 4
    assert data["partition_of_omega"] is True


@pytest.mark.parametrize("size", ["1", "0", "-3"])
def test_dom_axioms_refuses_families_below_two(data_dir, capsys, size):
    # axioms 1 and 2 quantify over families of two events or more
    from causetlab.cli import main

    argv = ["dom-axioms", "--model", str(data_dir / "diamond_uniform.json"), "--family-size", size]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "causetlab dom-axioms: family_size must be at least 2\n"


def test_dom_axioms_refuses_an_empty_sample(data_dir, capsys):
    # --events 0 asks for a sample, not the exhaustive sweep, and an empty
    # sample would pass every axiom vacuously
    from causetlab.cli import main

    assert main(["dom-axioms", "--model", str(data_dir / "diamond_uniform.json"), "--events", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "causetlab dom-axioms: cannot sample 0 distinct events: --events must be at least 1\n"


def test_dom_axioms_command(data_dir):
    proc = run_cli("dom-axioms", "--model", str(data_dir / "anti2_perf.json"))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["report"]["passed"] is True


@pytest.mark.parametrize("events, code", [("16", 0), ("17", 2), ("-3", 2)])
def test_dom_axioms_samples_at_most_every_event(data_dir, events, code):
    # 4 histories have 16 distinct events; a 17th is refused before drawing
    proc = subprocess.run(CLI + ["dom-axioms", "--model", str(data_dir / "anti2_perf.json"),
                                 "--events", events], capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    if code:
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"causetlab dom-axioms: cannot sample {events} distinct events")
    else:
        assert json.loads(proc.stdout)["report"]["universe_size"] == 16


@pytest.mark.parametrize("event, message", [
    ('{"x": 1}', "unknown element 'x'"),
    ("[1]", "history keys must be strings"),
    ('{"a": [1]}', "cylinder values must be integers"),
    ('{"a": 1.7}', "cylinder values must be integers"),
    ('{"a": true}', "cylinder values must be integers"),
    ('{"a": "a"}', "cylinder values must be integers"),
])
def test_unreadable_event_is_a_usage_error(data_dir, event, message):
    proc = run_cli("ccs", "--model", str(data_dir / "diamond_uniform.json"),
                   "--a", event, "--b", '{"a": 1}', "--c", '{"p": 1}')
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("causetlab ccs: ") and message in proc.stderr


def test_ccs_command_single_cause(data_dir):
    proc = run_cli("ccs", "--model", str(data_dir / "anti2_perf.json"),
                   "--a", '{"x": 1}', "--b", '{"y": 1}', "--c", '{"x": 1}')
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["common_cause"]["qualifies"] is True


def test_ccs_find_and_partition(data_dir):
    model = str(data_dir / "anti2_perf.json")
    proc = run_cli("ccs", "--model", model, "--a", '{"x": 1}', "--b", '{"y": 1}',
                   "--find", "--max-size", "2")
    assert proc.returncode == 0
    found = json.loads(proc.stdout)["found"]
    assert [["00", "01"], ["10", "11"]] in found
    proc2 = run_cli("ccs", "--model", model, "--a", '{"x": 1}', "--b", '{"y": 1}',
                    "--partition", json.dumps([{"x": 0}, {"x": 1}]))
    assert proc2.returncode == 0
    proc3 = run_cli("ccs", "--model", model, "--a", '{"x": 1}', "--b", '{"y": 1}',
                    "--partition", json.dumps([[]]))
    assert proc3.returncode == 2  # empty cell: not a partition


def test_replicate_command_sweeps(data_dir):
    proc = run_cli("replicate", "--model", str(data_dir / "w_causet_uniform.json"))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["passed"] is True


def test_gap_command(data_dir):
    proc = run_cli("gap", "--model", str(data_dir / "diamond_uniform.json"),
                   "--a", "a", "--b", "b")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_equal"] is True


def test_theorems_command_small():
    proc = run_cli("theorems", "--max-elements", "2")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["passed"] is True
    assert set(data["suites"]) == {
        "region-identities",
        "full-specification-partitions",
        "composition-law",
        "dom-axioms",
        "so1-to-so2-replication",
    }


def test_theorems_command_ternary():
    # 3^3 histories are too many to enumerate every event, so the dom
    # axioms run exhaustively up to 2 elements and are sampled at 3
    proc = run_cli("theorems", "--alphabet", "3", "--max-elements", "3")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["passed"] is True
    assert all(suite["checked"] > 0 for suite in data["suites"].values())


def test_hunt_command_jsonl_and_exit_code():
    proc = run_cli("hunt", "--max-elements", "2", "--include-perfect", "--seed", "0")
    assert proc.returncode == 1  # findings present
    lines = proc.stdout.strip().splitlines()
    *findings, summary = lines
    assert len(findings) == 1
    parsed = json.loads(findings[0])
    assert parsed["bits"] == "0011"
    assert json.loads(summary)["summary"]["findings"] == 1


def test_hunt_resume_prints_the_same_summary_and_exit_code(tmp_path, capsys):
    from causetlab.cli import main

    args = ["hunt", "--max-elements", "2", "--include-perfect", "--seed", "0",
            "--checkpoint", str(tmp_path / "hunt.ckpt")]
    assert main(args) == 1
    first = capsys.readouterr().out.splitlines()
    assert len(first) == 2
    # nothing left to do: no finding is re-printed, but the summary counts it
    assert main(args + ["--resume"]) == 1
    assert capsys.readouterr().out.splitlines() == first[1:]


def test_hunt_command_clean_exit_0():
    proc = run_cli("hunt", "--max-elements", "2")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1  # just the summary


@pytest.mark.parametrize("name, caps", [("anti2_q3", "algebra=3"), ("anti3_q2", "algebra=5")])
@pytest.mark.parametrize("command, extra, code", [
    ("check", ["--principle", "all"], 1),
    ("replicate", [], 0),
])
def test_capped_canonical_output_is_pinned(data_dir, capsys, name, caps, command, extra, code):
    # random measures under algebra caps that truncate Gamma and are not
    # powers of two; the expected bytes come from the exhaustive subset-sum
    # sweep that the per-cell decision replaced
    from causetlab.cli import main

    golden = data_dir / "golden"
    model = str(golden / f"{name}.json")
    assert main([command, "--model", model, *extra, "--caps", caps]) == code
    expected = (golden / f"{name}.{command}.{caps.replace('=', '')}.out").read_text()
    assert capsys.readouterr().out == expected


_SWEEP_MODELS = ("anti2_perf.json", "chain2_uniform.json", "cyclic.json", "diamond_uniform.json",
                 "w_causet_uniform.json", "golden/anti2_q3.json", "golden/anti3_q2.json")


@pytest.mark.parametrize("path", _SWEEP_MODELS)
@pytest.mark.parametrize("caps", ["", "algebra=0", "algebra=1", "algebra=3", "algebra=7", "region=1",
                                  "region=2,algebra=7"])
@pytest.mark.parametrize("command, extra", [("check", ["--principle", "all"]), ("replicate", [])],
                         ids=["check", "replicate"])
def test_capped_sweep_output_is_pinned(data_dir, capsys, path, caps, command, extra):
    # exit code and stdout digest of every sweep under caps that cut Gamma
    # to a prefix of no, two or three cells, or skip regions; cyclic.json
    # pins the usage-error path. capped_sweeps.json maps
    # "<model> <command> <caps>" to [exit code, sha256 of stdout], taken
    # from the per-history, per-cell and per-event table builds
    from causetlab.cli import main

    code, digest = json.loads((data_dir / "golden" / "capped_sweeps.json").read_text())[f"{path} {command} {caps}"]
    assert main([command, "--model", str(data_dir / path), *extra, "--caps", caps]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


_SINGLETONS_Q3 = json.dumps([[k] for k in ("00", "10", "20", "01", "11", "21", "02", "12", "22")])


@pytest.mark.parametrize("name, case, extra, code", [
    # every condition of the common cause verdict fails, in both relevance forms
    ("anti3_q2", "c-printed", ["--a", '{"y":0}', "--b", '{"z":1}', "--c", '{"x":1}',
                               "--relevance", "printed", "--zero-screener", "strict"], 1),
    ("anti3_q2", "c-conditional", ["--a", '{"y":0}', "--b", '{"z":1}', "--c", '{"x":1}',
                                   "--relevance", "conditional", "--zero-screener", "strict"], 1),
    ("anti3_q2", "partition-screening", ["--a", '{"x":1}', "--b", '{"y":1}',
                                         "--partition", '[{"z":0},{"z":1}]'], 1),
    ("anti3_q2", "partition-relevance", ["--a", '{"x":1}', "--b", '{"y":1}', "--partition",
                                         '[["000","100","001","101"],["010","110","011"],["111"]]'], 1),
    ("anti3_q2", "find", ["--a", '{"x":1}', "--b", '{"y":1}', "--find", "--max-size", "3"], 0),
    ("anti2_q3", "find-regions", ["--a", '{"x":0}', "--b", '{"y":1}', "--find", "--mode", "regions",
                                  "--max-size", "9"], 1),
    # histories 11 and 22 have weight zero
    ("anti2_q3", "partition-strict", ["--a", '{"x":0}', "--b", '{"y":1}', "--partition", _SINGLETONS_Q3,
                                      "--zero-screener", "strict"], 1),
    # an uncorrelated pair still lists the zero-mass cells under strict
    ("anti2_q3", "partition-strict-uncorrelated", ["--a", '{"x":1}', "--b", '{"y":1}', "--partition",
                                                   _SINGLETONS_Q3, "--zero-screener", "strict"], 1),
])
def test_ccs_output_is_pinned(data_dir, capsys, name, case, extra, code):
    # the expected bytes come from the Fraction-arithmetic verdicts that the
    # integer-mass decisions replaced; the uncorrelated strict case agrees
    # with the brute_ccs oracle
    from causetlab.cli import main

    golden = data_dir / "golden"
    assert main(["ccs", "--model", str(golden / f"{name}.json"), *extra]) == code
    assert capsys.readouterr().out == (golden / f"{name}.ccs.{case}.out").read_text()


@pytest.mark.parametrize("case, argv", [
    ("n4-seed7", ["--max-elements", "4", "--seed", "7"]),
    ("q3-n3-seed7", ["--alphabet", "3", "--max-elements", "3", "--seed", "7"]),
])
def test_theorems_output_is_pinned(data_dir, capsys, case, argv):
    # the dom-axioms suite's counts are part of these bytes
    from causetlab.cli import main

    assert main(["theorems", *argv]) == 0
    assert capsys.readouterr().out == (data_dir / "golden" / f"theorems.{case}.out").read_text()


@pytest.mark.parametrize("name, case, extra, code", [
    ("anti3_q2", "so2", ["--principle", "so2"], 1),
    ("anti3_q2", "fin-so1-strict", ["--principle", "fin-so1", "--zero-screener", "strict"], 0),
])
def test_check_output_is_pinned(data_dir, capsys, name, case, extra, code):
    from causetlab.cli import main

    golden = data_dir / "golden"
    assert main(["check", "--model", str(golden / f"{name}.json"), *extra]) == code
    assert capsys.readouterr().out == (golden / f"{name}.check.{case}.out").read_text()


@pytest.mark.parametrize("argv, digest", [
    (["--max-elements", "4", "--measures", "5", "--seed", "7"],
     "c3ec2dd80c5a3307b38beeaa9a33dbcb1e205a60d10a827be8f5e94f9083f15a"),
    (["--max-elements", "5", "--measures", "3", "--seed", "3"],
     "1e335683bcefc647848e73dfaae5d80d6680900de84db317b954dfae770f3f7f"),
    # truth table 0000 204, 0001 1, 0011 185, 1111 132: one model holds FIN-SO2 alone
    (["--max-elements", "5", "--measures", "5", "--seed", "7"],
     "5cec808d290077632b70eecc3121698381556a9e0091a7f2f73e8812a5cc2e1a"),
], ids=["n4-m5-seed7", "n5-m3-seed3", "n5-m5-seed7"])
def test_hunt_stdout_digest_is_pinned(capsys, argv, digest):
    # whole hunts through the sweep, the witness listing and the replays;
    # theorems.n4-seed7.out pins the bytes of `theorems --max-elements 4 --seed 7`
    from causetlab.cli import main

    assert main(["hunt", *argv, "--include-perfect", "--workers", "1"]) == 1
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("path, code", [
    ("anti2_perf.json", 0),
    ("chain2_uniform.json", 0),
    ("cyclic.json", 2),
    ("diamond_uniform.json", 0),
    ("w_causet_uniform.json", 0),
    ("golden/anti2_q3.json", 0),
    ("golden/anti3_q2.json", 0),
])
@pytest.mark.parametrize("case, extra", [
    ("all", []),
    ("events12-seed3", ["--events", "12", "--seed", "3"]),
])
def test_dom_axioms_output_is_pinned(data_dir, capsys, path, code, case, extra):
    from causetlab.cli import main

    model = data_dir / path
    assert main(["dom-axioms", "--model", str(model), *extra]) == code
    golden = data_dir / "golden" / f"{model.stem}.dom-axioms.{case}.out"
    assert capsys.readouterr().out == golden.read_text()


def test_dom_axioms_checks_an_explicit_map_once(tmp_path, monkeypatch, capsys):
    import warnings

    import causetlab.histories as histories
    import causetlab.principles as principles
    from causetlab.cli import main

    # the canonical dom of a 2-element antichain spelled out, but with
    # dom({x=1}) = {x, y}, which breaks axiom 3
    space = HistorySpace(causet_from_data({"elements": ["x", "y"]}), 2)
    dom = {
        json.dumps(space.event_keys(e)): list(space.causet.labels(space.canonical_dom(e)))
        for e in range(space.omega + 1)
    }
    dom[json.dumps(space.event_keys(space.cylinder({"x": 1})))] = ["x", "y"]
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps({"causet": {"elements": ["x", "y"]}, "dom": dom}))

    calls = []
    check = histories.check_dom_axioms

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(histories, "check_dom_axioms", counted)
    monkeypatch.setattr(principles, "check_dom_axioms", counted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["dom-axioms", "--model", str(path)]) == 1
    out, err = capsys.readouterr()
    assert len(calls) == 1
    assert [str(w.message) for w in caught] == [] and err == ""
    assert out == (
        '{"conventions":{"full_specification_subset":"non-strict (dom(F) subseteq R)",'
        '"relevance_form":"printed","zero_probability_screeners":"vacuous"},'
        '"report":{"axioms":[{"axiom":1,"checked":18,"passed":true,"witness":null},'
        '{"axiom":2,"checked":222,"passed":true,"witness":null},'
        '{"axiom":3,"checked":6,"passed":false,"witness":{"dom":["x"],'
        '"dom_of_complement":["x","y"],"event":["00","01"]}},'
        '{"axiom":4,"checked":27,"passed":true,"witness":null}],'
        '"family_size":3,"passed":false,"stamped":null,"universe_size":16}}\n'
    )


def _sub_algebra_map(tmp_path):
    # a 2-element antichain whose map defines only the events x decides
    space = HistorySpace(causet_from_data({"elements": ["x", "y"]}), 2)
    defined = ((0, []), (space.cylinder({"x": 0}), ["x"]), (space.cylinder({"x": 1}), ["x"]),
               (space.omega, []))
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({
        "causet": {"elements": ["x", "y"]},
        "dom": {json.dumps(space.event_keys(e)): region for e, region in defined},
    }))
    return path


def test_dom_axioms_samples_an_explicit_map_from_its_universe(tmp_path, capsys):
    from causetlab.cli import main

    path = _sub_algebra_map(tmp_path)
    assert main(["dom-axioms", "--model", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["universe_size"] == 4
    for events in ("3", "4"):
        assert main(["dom-axioms", "--model", str(path), "--events", events, "--seed", "0"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)["report"]["universe_size"] == int(events)


def test_dom_axioms_refuses_more_samples_than_the_map_defines(tmp_path, capsys):
    from causetlab.cli import main

    assert main(["dom-axioms", "--model", str(_sub_algebra_map(tmp_path)), "--events", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "causetlab dom-axioms: cannot sample 5 distinct events from a universe of 4 events\n"


def test_identical_invocations_identical_bytes(data_dir):
    args = ("check", "--model", str(data_dir / "anti2_perf.json"), "--principle", "all")
    a, b = run_cli(*args), run_cli(*args)
    assert a.stdout == b.stdout and a.stdout


def test_pretty_flag_changes_rendering_not_content(data_dir):
    args = ("check", "--model", str(data_dir / "diamond_uniform.json"))
    plain = run_cli(*args)
    pretty = run_cli(*args, "--pretty")
    assert plain.stdout != pretty.stdout
    assert json.loads(plain.stdout) == json.loads(pretty.stdout)
