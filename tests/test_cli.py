import contextlib
import functools
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdrop import cli, harness, layout, numkernel, pruner, toymodel
from pdrop.cli import main
from pdrop.errors import ConfigError
from pdrop.numkernel import EXP_SAFE
from pdrop.toymodel import TOY_CONFIG, forward_elements, forward_plans, forward_pruned, init_model

TOY_MODEL = {
    "num_layers": 8, "hidden_size": 64, "num_heads": 4,
    "head_dim": 16, "ffn_intermediate": 172, "vocab_size": 256,
}
# the mid benchmark model's width, at which marker bounds pass EXP_SAFE
D256_MODEL = {**TOY_MODEL, "hidden_size": 256, "num_heads": 8, "head_dim": 32,
              "ffn_intermediate": 688}
# the config a refusal row overrides
BASE = {"model": TOY_MODEL, "fixture": {"image_tokens": 16}}
# the sections of the config the output tests run
EXPERIMENT = {
    "seed": 7,
    "fixture": {"image_tokens": 64, "marked_count": 4},
    "strategy": {"name": "pdrop", "stages": 4, "keep_ratio": 0.5},
    "strategies": ["vanilla", "pdrop", {"name": "fastv"}, {"name": "random", "seed": 1}],
    "sweep": {"layers": [2, 4], "ratios": [0.25, 0.5]},
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE, **EXPERIMENT}))
    return str(path)


@pytest.fixture
def forward_calls(monkeypatch):
    """Records the number of layers of each forward a command runs."""
    calls = []

    def counted(forward):
        def call(weights, *args, **kwargs):
            calls.append(weights.config.num_layers)
            return forward(weights, *args, **kwargs)
        return call

    monkeypatch.setattr(harness, "forward_pruned", counted(forward_pruned))
    monkeypatch.setattr(harness, "forward_plans", counted(forward_plans))
    return calls


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# --- output ---------------------------------------------------------------

def test_cost_pyramid(capsys):
    code, out = run_cli(capsys, "cost", "--n", "576", "--layers", "32",
                        "--d", "4096", "--m", "11008", "--lambda", "0.5", "--stages", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["unit"] == "FLOPs"
    assert round(obj["total"] / 1e12, 2) == 1.78
    assert obj["avg_tokens"] == 270.0


def test_cost_strategy(capsys):
    code, out = run_cli(capsys, "cost", "--n", "576", "--layers", "32",
                        "--d", "4096", "--m", "11008",
                        "--strategy", "fastv", "--drop-layer", "2", "--lambda", "0.5")
    assert code == 0
    assert round(json.loads(out)["total"] / 1e12, 2) == 2.01


def test_cost_vanilla_default(capsys):
    code, out = run_cli(capsys, "cost", "--n", "576", "--layers", "32",
                        "--d", "4096", "--m", "11008")
    assert code == 0
    assert round(json.loads(out)["total"] / 1e12, 2) == 3.82


def test_cost_strategy_default_keep_ratio(capsys):
    # --lambda defaults to None; leaving it unset must
    # not hand the strategy a ratio of None
    code, out = run_cli(capsys, "cost", "--n", "576", "--layers", "32",
                        "--d", "4096", "--m", "11008", "--strategy", "pdrop")
    assert code == 0
    assert json.loads(out)["avg_tokens"] == 270.0


@pytest.mark.parametrize("n", ["16", "576"])
@pytest.mark.parametrize("keep_ratio", ["0.1", "0.5", "1.0"])
@pytest.mark.parametrize("stages", ["1", "4", "8"])
def test_cost_lambda_alone_is_pdrop(capsys, n, keep_ratio, stages):
    flags = ["--n", n, "--layers", "8", "--d", "64", "--m", "172",
             "--lambda", keep_ratio, "--stages", stages]
    code, alone = run_cli(capsys, "cost", *flags)
    assert code == 0
    assert (0, alone) == run_cli(capsys, "cost", *flags, "--strategy", "pdrop")


def test_schedule(capsys):
    code, out = run_cli(capsys, "schedule", "--layers", "32", "--stages", "4",
                        "--lambda", "0.5", "--tokens", "576")
    assert code == 0
    obj = json.loads(out)
    assert obj["boundaries"] == [8, 16, 24]
    assert obj["stage_tokens"] == [576, 288, 144, 72]


def test_run_with_masks(capsys, config_file):
    code, out = run_cli(capsys, "run", "--config", config_file, "--seed", "11")
    assert code == 0
    report = json.loads(out)
    assert report["strategy"] == "pdrop"
    assert report["recall"] == 1.0
    assert [len(s["kept"]) for s in report["stages"]] == [32, 16, 8]


def test_cost_count_at_the_bound_runs(capsys):
    bound = str(harness.MAX_COUNT)
    code, out = run_cli(capsys, "cost", "--n", bound, "--layers", bound, "--d", bound, "--m", bound)
    assert code == 0 and json.loads(out)["ratio"] == 1.0


@pytest.mark.parametrize("argv, usage", [(["--help"], "usage: pdrop [-h]"),
                                         (["cost", "--help"], "usage: pdrop cost [-h]")],
                         ids=["pdrop", "cost"])
def test_help_exits_0_with_usage_on_stdout(capsys, argv, usage):
    # --help is the one path that leaves main through argparse's SystemExit
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(usage) and captured.err == ""


def test_run_coerces_fixture_fields(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": TOY_MODEL, "fixture": {"image_tokens": "16"}}))
    code, out = run_cli(capsys, "run", "--config", str(path))
    assert code == 0
    assert [len(s["kept"]) for s in json.loads(out)["stages"]] == [8, 4, 2]


@pytest.mark.parametrize("model, fast", [(TOY_MODEL, True), (D256_MODEL, False)],
                         ids=["toy", "d256"])
def test_marker_outputs_do_not_depend_on_the_softmax_route(capsys, monkeypatch, tmp_path,
                                                            softmax_calls, model, fast):
    # a marker model's bound is about 200 at the toy width (the unshifted
    # route) and about 564 at d=256 (the shifted one) while the marked rows
    # live, as they do through pdrop's run; its value blocks are zero, so
    # run, compare and sweep print the same bytes by either route
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": model, "seed": 7, "fixture": {"image_tokens": 64}}))
    swept = tmp_path / "sweep.csv"
    commands = [["run", "--config", str(path)],
                ["compare", "--config", str(path), "--strategies", "vanilla,pdrop,fastv,random"],
                ["sweep", "--config", str(path), "--layers", "2,4", "--ratios", "0.25,0.5",
                 "--out", str(swept)]]

    def outputs():
        return [run_cli(capsys, *argv) for argv in commands] + [swept.read_text()]

    routed = outputs()
    assert [code for code, _ in routed[:3]] == [0, 0, 0]
    assert json.loads(routed[0][1])["recall"] == 1.0
    softmax_calls.clear()
    run_cli(capsys, *commands[0])
    assert softmax_calls and all((bound <= EXP_SAFE) == fast for _, bound in softmax_calls)
    monkeypatch.setattr(numkernel, "EXP_SAFE", -np.inf)  # every bound past it
    assert outputs() == routed


def test_sweep_runs_one_forward(capsys, config_file, tmp_path, forward_calls):
    code = main(["sweep", "--config", config_file, "--layers", "6,1,2,4,2",
                 "--ratios", "0.1,0.3,0.5,0.7,0.9", "--out", str(tmp_path / "sweep.csv")])
    assert code == 0
    # one forward, stopped after the last sweep layer (6 of 8): the final
    # stage needs one layer
    assert forward_calls == [7]


def test_sweep_csv(capsys, config_file, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _ = run_cli(capsys, "sweep", "--config", config_file,
                      "--layers", "2,4", "--ratios", "0.25,0.5", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "layer,keep_ratio,recall,kept_count,flops"
    assert len(lines) == 5


def test_compare_past_the_tree_bound_runs_in_parts(capsys, monkeypatch, tmp_path):
    # a bound that admits one plan's forward of the 1065 tokens (and the
    # toy weights) but not four plans' rows at once: the same bytes as with
    # room for all four
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": TOY_MODEL, "seed": 7,
                                "fixture": {"image_tokens": 64, "instruction_length": 1000}}))
    argv = ["compare", "--config", str(path), "--strategies", "vanilla,pdrop,fastv,random"]
    expected = run_cli(capsys, *argv)
    assert expected[0] == 0
    for bound in (forward_elements(TOY_CONFIG, 1065, 4) - 1, forward_elements(TOY_CONFIG, 1065)):
        monkeypatch.setattr(layout, "MAX_ELEMENTS", bound)
        assert run_cli(capsys, *argv) == expected


def test_compare(capsys, config_file, tmp_path):
    out_path = tmp_path / "compare.json"
    argv = ["compare", "--config", config_file, "--strategies", "vanilla,pdrop,fastv,random"]
    code, _ = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 0
    # a second run prints the bytes the first wrote to --out: same seed, same bytes
    assert run_cli(capsys, *argv) == (0, out_path.read_text())
    reports = json.loads(out_path.read_text())
    assert [r["strategy"] for r in reports] == ["vanilla", "pdrop", "fastv", "random"]
    by_name = {r["strategy"]: r for r in reports}
    assert by_name["pdrop"]["recall"] == 1.0
    assert by_name["pdrop"]["cost"]["total"] < by_name["vanilla"]["cost"]["total"]


def test_compare_runs_shared_layers_once(capsys, config_file, layer_forwards):
    # vanilla, pdrop, fastv and random share layers 1-2, and pdrop and fastv
    # layers 3-4: 24 layer forwards, not 4 x 8; one strategy runs 8
    assert run_cli(capsys, "compare", "--config", config_file,
                   "--strategies", "vanilla,pdrop,fastv,random")[0] == 0
    assert len(layer_forwards) == 24
    layer_forwards.clear()
    assert run_cli(capsys, "run", "--config", config_file)[0] == 0
    assert len(layer_forwards) == 8


@pytest.mark.parametrize("argv", [
    ["cost", "--n", "576", "--layers", "32", "--d", "4096", "--m", "11008"],
    ["schedule", "--layers", "32", "--stages", "4", "--lambda", "0.5", "--tokens", "576"],
    ["run"],
    ["compare"],
], ids=lambda argv: argv[0])
def test_json_output_is_indented_and_ends_in_one_newline(capsys, config_file, argv):
    if argv[0] in ("run", "compare"):
        argv = [*argv, "--config", config_file]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# --- refusals -------------------------------------------------------------
#
# COMMAND_LINES, CONFIGS, FIXTURE_FILES and BOUNDS map a test to its rows,
# each an input (argv, config, fixture file, attributes to set) and what
# main makes of it. A refusal (exit 2 or 3) ends within a second with one
# stderr line, nothing on stdout, no --out file and ``ran``'s forward calls
# and layer forwards; exit 0 is a bound's at-bound side, with no stderr.
# Warnings are errors. A row's id is its case id; a test whose rows have
# none runs them as one case.

class Line(NamedTuple):
    """A message known by its start and end; ``cut`` by errors.one_line, it holds "..."."""
    start: str
    end: str = ""
    cut: bool = True


class Row(NamedTuple):
    message: str | Line = ""  # the line after "error: " or "i/o error: "
    argv: str | list = "run"  # a str is split at spaces
    code: int = 2
    config: dict | str | bytes = {}  # an override of BASE, or the file's text
    fixture: str | bytes | None = None  # the fixture file's text
    patch: tuple = ()  # (module, attribute, value) triples, often a shrunk bound
    ran: tuple = (0, 0)


def row(id, *columns, marks=(), **named):
    return pytest.param(Row(*columns, **named), id=id, marks=marks)


def encode(text):
    return text if isinstance(text, bytes) else text.encode()


def write_inputs(argv, config, fixture):
    """Writes config.json (``config`` over BASE, or its text) and, given its
    text, fixture.json, which the config then names, in the working
    directory; returns ``argv`` with --config, and --out for sweep and
    compare, filled in where it lacks them."""
    argv = argv.split() if isinstance(argv, str) else argv
    if fixture is not None:
        pathlib.Path("fixture.json").write_bytes(encode(fixture))
        config = {"fixture": {"path": "fixture.json"}, **config}
    if isinstance(config, dict):
        config = json.dumps({**BASE, **config})
    pathlib.Path("config.json").write_bytes(encode(config))
    if argv[0] in ("run", "sweep", "compare") and "--config" not in argv:
        argv = [*argv, "--config", "config.json"]
    if argv[0] in ("sweep", "compare") and "--out" not in argv:
        argv = [*argv, "--out", "out"]
    return argv


def assert_one_line(err, code, message):
    """``err`` is one line of at most 200 characters: the error ``message``
    whole or, for a ``Line``, as it describes it."""
    assert err.count("\n") == 1 and err.endswith("\n") and len(err) <= 200
    prefix = {2: "error: ", 3: "i/o error: "}[code]
    if isinstance(message, Line):
        assert err.startswith(prefix + message.start) and err.endswith(message.end + "\n")
        assert "..." in err or not message.cut
    else:
        assert err == f"{prefix}{message}\n"


@pytest.fixture
def check(capsys, monkeypatch, tmp_path, forward_calls, layer_forwards):
    """Runs a row in tmp_path and checks what main made of it."""
    monkeypatch.chdir(tmp_path)

    def run(row):
        argv = write_inputs(row.argv, row.config, row.fixture)
        for module, name, value in row.patch:
            monkeypatch.setattr(module, name, value)
        forward_calls.clear()
        layer_forwards.clear()
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == row.code
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        if row.code == 0:
            assert err == "" and (json.loads(out) if out else os.path.getsize("out"))
        else:
            assert out == "" and not os.path.exists("out")
            assert_one_line(err, row.code, row.message)
            assert (len(forward_calls), len(layer_forwards)) == row.ran

    return run


with pytest.raises(ValueError) as bad_json:
    json.loads("{")
INVALID = f"invalid JSON: {bad_json.value}"  # read_json's reason for "{"
LONG = "a" * 100_000
HUGE_INT = int("9" * 4000)  # 4,000 digits, under Python's digit limit for parsing
PAST = f" is past the bound of {harness.MAX_COUNT}"
COST = "cost --n 576 --layers 32 --d 4096 --m 11008"
COST_D = "cost --n 576 --layers 32 --m 16 --d"
STAGES = f"need 1 <= stages <= layers and {pruner.MAX_STAGES}, got S="
SIZES = "hidden size d and FFN size m must be positive, got d="
NO_FILE = "No such file or directory: "
FINITE = "image embeddings must be finite"
IDS = "sequence fixture instruction must be a flat list of integer ids"
SIDES = ("at_bound", "past_bound")
# JSON that json.load refuses with an error other than JSONDecodeError
UNREADABLE_JSON = [b'\xff{}', "[" * 100_000, '{"seed": ' + "1" * 5000 + "}"]
UNREADABLE_IDS = ["not_utf8", "deep_arrays", "long_int"]

COMMAND_LINES = {
    # a flag the strategy lacks is named as typed
    "test_cost_flag_the_strategy_lacks_is_config_error": [
        row("flags2", "strategy 'uniform' takes no --drop-layer",
            f"{COST} --strategy uniform --drop-layer 2"),
        row("flags4", "strategy 'vanilla' takes no --stages", f"{COST} --stages 4")],
    "test_cost_error_names_the_flag_typed": [
        row(f"flags{i}-{named}", f"strategy {named}", f"{COST} {flags}")
        for i, (flags, named) in enumerate([
            ("--lambda 0.5 --tokens 64", "'pdrop' takes no --tokens"),
            ("--strategy fastv --stages 7", "'fastv' takes no --stages"),
            ("--strategy vanilla --lambda 0.5", "'vanilla' takes no --lambda"),
            ("--strategy uniform --drop-layer 2 --stages 3",
             "'uniform' takes no --stages, --drop-layer")])],
    "test_schedule_config_error_exit_code": [
        row(None, f"{STAGES}8, J=4", "schedule --layers 4 --stages 8 --lambda 0.5 --tokens 16")],
    "test_cost_nonpositive_geometry_is_config_error": [
        row(f"strategy{i}-geometry{j}", f"{SIZES}{d}, m={m}",
            f"cost --n 16 --layers 8 --lambda 0.5 --d {d} --m {m}{strategy}")
        for i, strategy in enumerate(["", " --strategy fastv"])
        for j, (d, m) in enumerate([(-4, 16), (0, 16), (64, -1), (64, 0)])],
    # each strategy with the flags it takes, at 7B geometry
    "test_cost_zero_ffn_size_is_config_error_for_every_strategy": [
        row(flags.split()[0], f"{SIZES}4096, m=0", f"{COST[:-5]}0 --strategy {flags}")
        for flags in ["vanilla", "pdrop --lambda 0.5 --stages 4", "fastv --drop-layer 2 --lambda 0.5",
                      "uniform --tokens 288", "random --lambda 0.5 --stages 4"]],
    # a count past harness.MAX_COUNT: no report is built, no seed folded
    "test_huge_cost_flag_is_quoted_cut": [
        row(None, Line("--d: -9999", PAST), f"cost --n 576 --layers 32 --d -{HUGE_INT} --m 16")],
    "test_cost_count_past_the_bound_is_refused": [
        row(id, Line(f"{flags.split()[-2]}: ", PAST, cut=id != "d_2_63"), f"{COST} {flags}",
            patch=[(cli, "strategy_cost", None)])
        for id, flags in [("d", f"--d {HUGE_INT}"), ("n", f"--n {HUGE_INT}"), ("m", f"--m {HUGE_INT}"),
                          ("layers", f"--layers {HUGE_INT}"), ("d_2_63", f"--d {2**63}"),
                          ("tokens", f"--strategy uniform --tokens {HUGE_INT}"),
                          ("drop_layer", f"--strategy fastv --drop-layer {HUGE_INT}")]],
    "test_flag_count_past_the_bound_is_refused": [
        row(id, f"{argv.split()[-1]}: {value.split(',')[-1]}{PAST}", f"{argv} {value}")
        for id, argv, value in [
            ("run_seed", "run --seed", f"{2**64 + 7}"), ("negative_seed", "run --seed", f"{-2**63}"),
            ("schedule_tokens", "schedule --layers 8 --stages 4 --lambda 0.5 --tokens", f"{10**23 - 1}"),
            ("schedule_stages", "schedule --layers 8 --tokens 16 --lambda 0.5 --stages", f"{2**63}"),
            ("sweep_layers", "sweep --ratios 0.5 --layers", f"2,{2**63}")]],
    # one reader: the same words follow the name of where the value came from
    "test_flag_and_config_value_are_refused_alike": [
        row(None, "--layers: expected int, got 'x'", "sweep --layers 2,x"),
        row(None, "sweep layer: expected int, got 'x'", "sweep",
            config={"sweep": {"layers": [2, "x"], "ratios": [0.5]}})],
    # the config's reader's refusal, or argparse's, shown cut, without usage
    "test_bad_command_line_is_one_short_line": [
        row(id, Line(start), argv) for id, argv, start in [
            ("huge_int", f"{COST_D} {'9' * 5000}", "--d: expected int, got '"),
            ("long_float", f"{COST_D} 4 --lambda {LONG}", "--lambda: expected float, got '"),
            ("schedule_int", f"schedule --layers 8 --stages 4 --lambda 0.5 --tokens 1{LONG}",
             "--tokens: expected int, got '"),
            ("run_seed", f"run --config c.json --seed {LONG}", "--seed: expected int, got '"),
            ("unknown_flag", f"{COST_D} 4 --{LONG}", "unrecognized arguments: --"),
            ("newline_arg", [*COST_D.split(), "4", "x\n" * 50_000], "unrecognized arguments: x x "),
            ("unknown_command", LONG, "argument command: invalid choice: '")]],
    # a missing config of 152 characters: the line shows it whole
    "test_ordinary_path_is_shown_whole": [
        row(None, f"{NO_FILE}'data/{'run/' * 34}config.json'",
            f"run --config data/{'run/' * 34}config.json", 3)],
    "test_sweep_bad_ratios_are_config_errors": [
        row(ratios, f"--ratios: expected float, got '{ratios.split(',')[0]}'",
            f"sweep --layers 2 --ratios {ratios}")
        for ratios in ["0.1:0.9:0", "0.1:0.9:-0.2", "0.1:inf:0.2", "0.1:0.9", "a,b"]],
    "test_sweep_bad_layers_is_config_error": [
        row(None, "--layers: expected int, got 'a'", "sweep --layers a --ratios 0.5")],
    # every cell and strategy is resolved before the first forward
    "test_sweep_bad_cell_rejected_before_any_forward": [
        row("layer_past_last", "drop layer 8 must be in [1, 8)",
            "sweep --layers 2,8 --ratios 0.1,0.3,0.5,0.7,0.9"),
        row("ratio_in_late_cell", "keep_ratio must be in [0, 1], got 1.5",
            "sweep --layers 1,2,4,6 --ratios 0.1,0.3,0.5,0.7,1.5")],
    "test_compare_config_error_before_any_layer_forward": [
        row("uniform_last", "uniform compression has no forward semantics; it is cost-only",
            "compare --strategies vanilla,pdrop,fastv,random,uniform"),
        row("fastv_past_last_layer", "drop layer 9 must be in [1, 8)", "compare",
            config={"strategies": ["vanilla", "pdrop", {"name": "fastv", "drop_layer": 9}]})],
    # an empty flag neither falls back to the config nor skips its output
    "test_flag_given_empty_is_refused": [
        row("layers", "--layers: expected int, got ''", ["sweep", "--layers", ""]),
        row("ratios", "--ratios: expected float, got ''", ["sweep", "--ratios", ""]),
        row("strategies", "unknown strategy ''", ["compare", "--strategies", ""]),
        row("out", f"{NO_FILE}''", ["compare", "--out", ""], 3, config=EXPERIMENT, ran=(1, 24))],
    # each input has one spelling: a removed flag, name or ratio range fails
    "test_removed_form_exits_2": [
        row("keep_ratio", "unrecognized arguments: --keep-ratio 0.5",
            f"{COST} --strategy fastv --keep-ratio 0.5"),
        row("emit_masks", "unrecognized arguments: --emit-masks masks.json", "run --emit-masks masks.json"),
        row("pyramiddrop_config", "unknown strategy 'pyramiddrop'", config={"strategy": "pyramiddrop"}),
        row("qformer_config", "unknown strategy 'qformer'",
            config={"strategy": {"name": "qformer", "token_count": 64}}),
        row("pyramiddrop_flag", "unknown strategy 'pyramiddrop'",
            "compare --strategies vanilla,pyramiddrop"),
        row("qformer_flag", "unknown strategy 'qformer'", "compare --strategies qformer"),
        row("ratio_range", "--ratios: expected float, got '0.1:0.9:0.2'",
            "sweep --layers 2 --ratios 0.1:0.9:0.2")],
}

CONFIGS = {
    "test_run_mistyped_config_value_is_config_error": [
        row(f"override{i}", message, config=config) for i, (config, message) in enumerate([
            ({"strategy": {"name": "pdrop", "stages": "four"}},
             "strategy 'pdrop' stages: expected int, got 'four'"),
            ({"seed": "x"}, "seed: expected int, got 'x'"),
            ({"fixture": {"image_tokens": "many"}}, "fixture image_tokens: expected int, got 'many'"),
            ({"fixture": {"image_tokens": 16, "noise": float("nan")}}, FINITE),
            ({"fixture": {"path": 0}}, "fixture path: expected str, got 0"),
            ({"fixture": {"image_tokens": -5, "marked_count": -10}}, "cannot mark -10 of -5 image tokens"),
            ({"fixture": {"image_tokens": 16, "marker_dims": [99]}},
             "marker dims [99] outside hidden size 64"),
            ({"fixture": {"image_tokens": 64, "marked_count": -1, "marked_placement": "random"}},
             "cannot mark -1 of 64 image tokens"),
            ({"fixture": {"image_tokens": 16, "answer_length": -1}}, "negative answer length -1"),
            ({"fixture": {"image_tokens": 16, "marker_dims": list(range(64))}},
             Line("marker dims [0, 1, 2,", "63] leave no hidden dimension for the flag")),
            ({"strategy": {"name": "pdrop", "keep_ration": 0.3}},
             "strategy 'pdrop': unknown fields ['keep_ration']"),
            ({"seed": 1.5}, "seed: expected int, got 1.5"),
            ({"model": {**TOY_MODEL, "num_layers": 8.9}}, "model num_layers: expected int, got 8.9"),
            ({"strategy": {"name": "pdrop", "keep_ratio": True}},
             "strategy 'pdrop' keep_ratio: expected float, got True"),
            ({"fixture": {"image_tokens": 16, "noise": True}}, "fixture noise: expected float, got True"),
            ({"model": {**TOY_MODEL, "rope_theta": True}}, "model rope_theta: expected float, got True"),
            ({"sweep": {"ratios": [0.5, False]}}, "sweep ratio: expected float, got False"),
            # a section given but empty is refused, not replaced by its default
            *(({section: empty}, f"{section}: expected dict, got {empty!r}")
              for section in ("fixture", "sweep") for empty in (0, False, [], "", None)),
            # a misspelled key at any level is refused, not ignored
            ({"stratgy": "fastv"}, "config: unknown fields ['stratgy']"),
            ({"sweep": {"layer": [2], "ratios": [0.5]}}, "sweep: unknown fields ['layer']"),
            ({"fixture": {"path": "fixture.json", "image_tokens": 16}},
             "fixture: unknown fields ['image_tokens']"),
            # a NaN setting once passed a `<= 0` test, for an all-NaN forward
            *(({"model": {**TOY_MODEL, name: float(value)}, "strategy": "vanilla"},
               "rope_theta and rmsnorm_eps must be finite and positive")
              for value in ("nan", "inf") for name in ("rope_theta", "rmsnorm_eps"))])],
    # a bad value is shown cut, however long or deeply nested it is
    "test_long_bad_value_is_quoted_cut": [
        row("nested_seed", Line("seed: expected int, got [[["),
            config=json.dumps(BASE)[:-1] + ', "seed": ' + "[" * 900 + "]" * 900 + "}"),
        *(row(id, Line(start), config=config) for id, config, start in [
            ("long_seed", {"seed": LONG}, "seed: expected int, got 'aaa"),
            ("long_strategy_name", {"strategy": LONG}, "unknown strategy 'aaa"),
            ("long_unknown_key", {LONG: 0}, "config: unknown fields ['aaa"),
            ("long_placement", {"fixture": {"marked_placement": LONG}}, "unknown placement 'aaa")]),
        row("long_strategies_flag", Line("unknown strategy 'aaa"), f"compare --strategies {LONG}"),
        row("long_layers_flag", Line("--layers: expected int, got 'aaa"),
            f"sweep --ratios 0.5 --layers 1,{LONG}"),
        row("long_ratios_flag", Line("--ratios: expected float, got 'aaa"),
            f"sweep --layers 1 --ratios 0.5,{LONG}"),
        row("many_marker_dims", Line("marker dims [0, 1, 2,", "99999] outside hidden size 64"),
            config={"fixture": {"image_tokens": 16, "marker_dims": list(range(100_000))}})],
    # a config integer past harness.MAX_COUNT, its digits shown cut
    "test_huge_integer_is_quoted_cut": [
        row(id, Line(start, PAST), config=config) for id, config, start in [
            ("stages", {"strategy": {"name": "pdrop", "stages": HUGE_INT}}, "strategy 'pdrop' stages: 99"),
            ("drop_layer", {"strategy": {"name": "fastv", "drop_layer": HUGE_INT}},
             "strategy 'fastv' drop_layer: 99"),
            ("num_layers", {"model": {**TOY_MODEL, "num_layers": HUGE_INT}}, "model num_layers: 99"),
            ("negative_num_layers", {"model": {**TOY_MODEL, "num_layers": -HUGE_INT}},
             "model num_layers: -99"),
            ("head_dim", {"model": {**TOY_MODEL, "head_dim": HUGE_INT}}, "model head_dim: 99"),
            ("image_tokens", {"fixture": {"image_tokens": HUGE_INT}}, "fixture image_tokens: 99"),
            *((field, {"fixture": {"image_tokens": 16, field: sign * HUGE_INT}},
               f"fixture {field}: {sign * 99}")
              for field, sign in [("marked_count", 1), ("instruction_length", 1), ("answer_length", -1)]),
            ("margin_onset_layer", {"margin_onset_layer": HUGE_INT}, "margin_onset_layer: 99"),
            # once tracebacks: a dim past int64, a weight count or a summed
            # token count past Python's digit limit for printing an integer
            ("marker_dims", {"fixture": {"image_tokens": 16, "marker_dims": [0, 10**4000]}},
             "fixture marker_dims: 10"),
            ("hidden_size_and_head_dim",
             {"model": {**TOY_MODEL, "hidden_size": 10**4000, "num_heads": 1, "head_dim": 10**4000}},
             "model hidden_size: 10"),
            ("text_lengths", {"fixture": {"image_tokens": 16, "instruction_length": 9 * 10**4299,
                                          "answer_length": 9 * 10**4299}},
             "fixture instruction_length: 90")]],
    # the operating system's error names a config-supplied path, shown cut
    "test_long_missing_fixture_path_is_quoted_cut": [
        row(None, Line("File name too long: 'aaa"), code=3, config={"fixture": {"path": LONG}})],
    "test_malformed_config_file_is_config_error": [
        row("invalid_json", f"config.json: {INVALID}", config="{"),
        *(row(id, Line("config.json: invalid JSON: ", cut=False), config=text)
          for id, text in zip(UNREADABLE_IDS, UNREADABLE_JSON))],
    # 8192 layers of hidden size 2: 26 elements each, charged 4096 each
    "test_deep_tiny_model_refused": [
        row(None, "model weights: 33554440 elements exceed the bound of 33554432",
            config={"model": {"num_layers": 8192, "hidden_size": 2, "num_heads": 1, "head_dim": 2,
                              "ffn_intermediate": 1, "vocab_size": 2}})],
    # 2**26 vocabulary rows: the embedding and head would hold 64 GiB
    "test_huge_vocabulary_refused_before_any_weight_is_built": [
        row(None, "model weights: 8590330880 elements exceed the bound of 33554432",
            config={"model": {**TOY_MODEL, "vocab_size": 1 << 26}},
            patch=[(harness, "build_marker_model", None)])],
    # noise x a normal, the amplitude's sum, or inf - inf: no numpy warning
    "test_fixture_whose_values_overflow_is_one_line": [
        row(id, FINITE, config={"fixture": {"image_tokens": 16, **fixture}}) for id, fixture in [
            ("noise", {"noise": 1e308}), ("amplitude", {"noise": 1e307, "amplitude": 1.7e308}),
            ("inf_minus_inf", {"noise": float("inf"), "amplitude": float("-inf")})]],
    # the marker model is built, and checked, before the fixture is read
    "test_model_checked_before_fixture_file_is_read": [
        row(None, "margin onset layer 9 outside [1, 8]",
            config={"margin_onset_layer": 9, "fixture": {"path": "missing.json"}})],
}

FIXTURE_FILES = {
    "test_run_non_2d_image_fixture_is_input_error": [
        row(None, "image embeddings must be 2-D rows, got shape (2, 64, 2)",
            fixture=json.dumps({"image": [[[0.0] * 2] * 64] * 2, "instruction": [1, 2]}))],
    "test_malformed_fixture_file_is_input_error": [
        row("invalid_json", f"fixture.json: {INVALID}", fixture="{"),
        row("not_object", "sequence fixture must be a JSON object, got list", fixture="[1, 2]"),
        row("string_ids", IDS, fixture='{"image": [], "instruction": "ab"}'),
        row("nested_ids", IDS, fixture='{"image": [], "instruction": [[1]]}'),
        row("huge_id", IDS, fixture='{"image": [], "instruction": [1e30]}'),
        *(row(id, Line("fixture.json: invalid JSON: ", cut=False), fixture=text)
          for id, text in zip(UNREADABLE_IDS, UNREADABLE_JSON))],
    # squares past the float64 range: the first RMS norm would zero the row
    "test_image_row_whose_squares_overflow_is_input_error": [
        row("generated", "image embedding row 12: its sum of squares overflows float64",
            config={"fixture": {"image_tokens": 16, "amplitude": 1e160}}),
        row("file", "image embedding row 3: its sum of squares overflows float64",
            fixture=json.dumps({"image": [[0.0] * 64] * 3 + [[1e160] * 64], "instruction": [1, 2]}))],
    # 100,000 ids pass the file and id checks; their forward would not fit
    "test_long_fixture_text_refused_before_the_forward_allocates": [
        row(None, "a forward of 100000 tokens: 44800128 elements exceed the bound of 33554432",
            fixture=json.dumps({"image": [], "instruction": [1] * 100_000}),
            patch=[(toymodel, "_embed", None)], ran=(1, 0))],
}

_weights = init_model(TOY_CONFIG, 0)
WEIGHTS = sum(a.size for lw in _weights.layers for a in vars(lw).values()) + _weights.embedding.size * 2
IMAGE_4 = json.dumps({"image": [[0.0] * 64] * 4, "instruction": [1, 2]})
FIXTURE_LIMIT = layout.FIXTURE_BYTES_PER_ELEMENT * 4 * TOY_MODEL["hidden_size"]
LONG_PATH = {"fixture": {"path": "./" * 1990 + "fixture.json"}}
TOP = float(np.sqrt(np.finfo(float).max / 64) * (1 - 1e-12))
BOUNDS = {
    # a count past the bound is refused before a list of that length is built
    "test_stage_count_bound": [
        row(f"{SIDES[past]}-{command.split()[0]}", f"{STAGES}{n}, J={n}",
            f"{command} --layers {n} --stages {n}", 2 * past)
        for past, n in ((0, pruner.MAX_STAGES), (1, pruner.MAX_STAGES + 1))
        for command in ["schedule --lambda 0.5 --tokens 1", "cost --lambda 0.5 --n 1 --d 64 --m 172"]],
    # the bound admits an integer of its own magnitude, of either sign
    "test_config_integer_at_the_bound_runs": [
        row(None, code=0, config={"seed": seed}) for seed in (harness.MAX_COUNT, -harness.MAX_COUNT)],
    # 64 equal entries whose squares rmsnorm_rows sums 2e-12 under the overflow
    "test_image_row_just_under_the_overflow_runs": [
        row(None, code=0, fixture=json.dumps({"image": [[0.0] * 64] * 3 + [[TOP] * 64],
                                              "instruction": [1, 2]}))],
    # shrunk to 16 toy-width image tokens, so nothing large is allocated
    "test_image_size_bound": [
        row(f"{SIDES[past]}-{argv.split()[0]}",
            "17 image tokens x hidden size 64 exceeds the bound of 1024 elements", argv, 2 * past,
            config={"fixture": {"image_tokens": 16 + past}}, patch=[(layout, "MAX_IMAGE_ELEMENTS", 1024)])
        for past in (0, 1)
        for argv in ["run", "compare --strategies vanilla,pdrop", "sweep --layers 2 --ratios 0.5"]],
    # shrunk to the toy weights, or to the forward of a text long enough to
    # pass them: refused before the weights, ids or forward buffers are built
    "test_element_bound": [
        row(f"{case}-{SIDES[past]}", f"{what}: {bound} elements exceed the bound of {bound - 1}",
            code=2 * past, patch=[(layout, "MAX_ELEMENTS", bound - past)], ran=(calls, 0), **inputs)
        for case, bound, what, calls, inputs in [
            ("weights", WEIGHTS, "model weights", 0, {}),
            ("generated_text", forward_elements(TOY_CONFIG, 1017), "a forward of 1017 tokens", 0,
             {"config": {"fixture": {"image_tokens": 16, "instruction_length": 1000}}}),
            ("fixture_text", forward_elements(TOY_CONFIG, 1004), "a forward of 1004 tokens", 1,
             {"fixture": json.dumps({"image": [[0.0] * 64] * 4, "instruction": [1] * 1000})})]
        for past in (0, 1)],
    # a fixture file's image is counted once parsed, before it is an array
    "test_fixture_file_past_image_size_bound": [
        row(None, "4 image tokens x hidden size 64 exceeds the bound of 255 elements", fixture=IMAGE_4,
            patch=[(layout, "MAX_IMAGE_ELEMENTS", 255)])],
    # a file one byte past its bound is refused unparsed, padding or not
    "test_fixture_file_byte_size_bound": [
        row(SIDES[past], f"fixture file fixture.json holds {FIXTURE_LIMIT + 1} bytes, past the bound of "
            f"{FIXTURE_LIMIT}", code=2 * past, fixture=IMAGE_4.ljust(FIXTURE_LIMIT + past),
            patch=[(layout, "MAX_IMAGE_ELEMENTS", 4 * TOY_MODEL["hidden_size"])]) for past in (0, 1)],
    # a device shows size 0, so it is read in chunks until past the bound
    "test_endless_config_stream_is_refused_at_the_bound": [
        row(None, f"config file /dev/zero holds more than the bound of {harness.MAX_CONFIG_BYTES} bytes",
            "run --config /dev/zero",
            marks=[pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")])],
    # a 4,000-character path: its start shows, then the reader's reason
    "test_long_fixture_path_is_shown_cut": [
        row("invalid_json", Line("././", INVALID), config=LONG_PATH, fixture="{"),
        row("past_byte_bound",
            Line("fixture file ././", "/fixture.json holds 1 bytes, past the bound of 0"),
            config=LONG_PATH, fixture="{", patch=[(layout, "FIXTURE_BYTES_PER_ELEMENT", 0)])],
}


def table_test(rows):
    """The test of one table entry: a case per row, or, where the rows have
    no id, one case that runs them in turn."""
    if rows[0].id is not None:
        @pytest.mark.parametrize("row", rows)
        def test(check, row):
            check(row)
        return test

    def test(check):
        for param in rows:
            check(*param.values)

    return functools.reduce(lambda test, mark: mark(test), rows[0].marks, test)


for table in (COMMAND_LINES, CONFIGS, FIXTURE_FILES, BOUNDS):
    globals().update((name, table_test(rows)) for name, rows in table.items())


@pytest.mark.parametrize("extra, code", [(0, 0), (1, 2)], ids=["at_bound", "past_bound"])
def test_config_file_byte_size_bound(capsys, monkeypatch, tmp_path, extra, code):
    # the bound shrunk to the size of a small config: one byte more is
    # refused before json.loads runs, however little its padding holds; a
    # row could not count json.loads's calls at the bound
    text = json.dumps(BASE)
    limit = len(text) + 10
    monkeypatch.setattr(harness, "MAX_CONFIG_BYTES", limit)
    path = tmp_path / "config.json"
    path.write_text(text.ljust(limit + extra))
    loaded, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text: loaded.append(text) or loads(text))
    assert main(["run", "--config", str(path)]) == code
    assert len(loaded) == 1 - extra
    if code:
        assert capsys.readouterr().err == (
            f"error: config file {path} holds {limit + 1} bytes, past the bound of {limit}\n")


def test_unreadable_config_is_a_config_error(tmp_path):
    # the config's reader refuses it with its own error, not the fixture's
    for text in ["{", *UNREADABLE_JSON]:
        (tmp_path / "config.json").write_bytes(encode(text))
        with pytest.raises(ConfigError):
            harness.load_spec(tmp_path / "config.json")


def test_deepest_accepted_nesting_is_one_short_line(capsys, tmp_path):
    # a seed nested as deep as read_json accepts, a depth found by trying:
    # the error that shows it is still one cut line, not a RecursionError
    path = tmp_path / "config.json"
    text = json.dumps({"model": TOY_MODEL})[:-1] + ', "seed": '

    def refusal(depth):
        path.write_text(text + "[" * depth + "]" * depth + "}")
        assert main(["run", "--config", str(path)]) == 2
        return capsys.readouterr().err

    accepted, refused = 1, 1 << 16
    assert "invalid JSON" in refusal(refused) and "invalid JSON" not in refusal(accepted)
    while refused - accepted > 1:
        depth = (accepted + refused) // 2
        if "invalid JSON" in refusal(depth):
            refused = depth
        else:
            accepted = depth
    assert_one_line(refusal(accepted), 2, Line("seed: expected int, got [[["))


# --- entry points -------------------------------------------------------------

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
ENTRY_POINTS = {
    "module": [sys.executable, "-m", "pdrop"],
    # the console script pyproject.toml installs, where it is installed
    "script": [shutil.which("pdrop")],
}


@pytest.mark.parametrize("argv, code", [
    (["cost", "--n", "576", "--layers", "32", "--d", "4096", "--m", "11008",
      "--lambda", "0.5", "--stages", "4"], 0),
    (["cost", "--n", "16", "--layers", "8", "--d", "-4", "--m", "16", "--lambda", "0.5"], 2),
    (["run", "--config", "missing.json"], 3),
    (["cost", "--n", "576", "--layers", "32", "--m", "16", "--d", "9" * 5000], 2),
], ids=["ok", "config_error", "io_error", "bad_flag_value"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_exit_code(tmp_path, entry, argv, code):
    # the process exits with main()'s code; an error is one stderr line,
    # never a traceback
    if ENTRY_POINTS[entry][0] is None:
        pytest.skip("no pdrop console script on PATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([*ENTRY_POINTS[entry], *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code
    if code:
        assert done.stderr.startswith(("error: ", "i/o error: ")) and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr and done.stdout == ""
    else:
        assert done.stderr == ""
        assert round(json.loads(done.stdout)["total"] / 1e12, 2) == 1.78


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
@pytest.mark.parametrize("padding, code", [(0, 0), (1, 2)], ids=["readme_config", "past_bound"])
def test_config_through_a_pipe(tmp_path, padding, code):
    # a pipe shows size 0: the README's config runs through one, and padded
    # to one byte past the bound it is refused, not parsed whole
    (config,) = re.findall(r"```json\n(.*?)```", (SRC.parent / "README.md").read_text(), re.S)
    if padding:
        config = config.ljust(harness.MAX_CONFIG_BYTES + padding)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "pdrop", "run", "--config", "/dev/stdin"],
                          input=config, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == code
    if code:
        assert (done.stdout, done.stderr) == ("", "error: config file /dev/stdin holds more than "
                                                  f"the bound of {harness.MAX_CONFIG_BYTES} bytes\n")
    else:
        assert done.stderr == "" and json.loads(done.stdout)["strategy"] == "pdrop"


# --- whole-run fuzz -----------------------------------------------------------

# values of a wrong type or out of range, put in place of a generated field
WRONG = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 3),
                  st.floats(-10.0, 10.0), st.sampled_from([float("nan"), float("inf")]),
                  st.lists(st.integers(-1, 9), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
# sizes past layout.MAX_ELEMENTS, up to Python's digit limit, put in place of
# a model or generated fixture size or the margin onset layer, which the
# bounds refuse before anything of that size is built
HUGE = st.one_of(st.integers(layout.MAX_ELEMENTS + 1, 2**70), st.floats(1e20, 1e300),
                 st.integers(8, 4299).map(lambda k: 10**k))
SIZE_FIELDS = {"num_layers", "hidden_size", "num_heads", "head_dim", "ffn_intermediate",
               "vocab_size", "image_tokens", "instruction_length", "answer_length",
               "margin_onset_layer"}


def strategies(layers):
    """A strategy of each kind, its fields in range for ``layers`` layers."""
    stages, keep = st.integers(1, layers), st.floats(0.0, 1.0)
    fields = {
        "vanilla": {}, "pdrop": {"stages": stages, "keep_ratio": keep},
        "fastv": {"drop_layer": st.integers(1, max(1, layers - 1)), "keep_ratio": keep},
        "uniform": {"token_count": st.integers(0, 30)},
        "random": {"stages": stages, "keep_ratio": keep, "seed": st.integers(0, 99)},
    }
    return st.one_of(
        st.sampled_from(list(fields)),
        st.sampled_from(sorted(fields)).flatmap(
            lambda name: st.fixed_dictionaries({"name": st.just(name), **fields[name]})),
    )


@st.composite
def configs(draw, fixture_path):
    """A run's config file object, the text of a fixture file at
    ``fixture_path`` for it (None for a generated fixture), and whether a
    size in them is HUGE. In one case in eight one model or generated
    fixture size, or the margin onset layer, is HUGE; in half of the others one field somewhere in them
    is left out, or given a value from WRONG, or an unknown field is added."""
    layers, heads = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    head_dim = draw(st.sampled_from([8, 4, 2]))
    width = heads * head_dim
    config = draw(st.fixed_dictionaries({
        "model": st.fixed_dictionaries({
            "num_layers": st.just(layers), "hidden_size": st.just(width),
            "num_heads": st.just(heads), "head_dim": st.just(head_dim),
            "ffn_intermediate": st.integers(1, 8), "vocab_size": st.integers(2, 8),
            "rope_theta": st.floats(1.0, 1e5), "rmsnorm_eps": st.floats(1e-9, 1e-2),
        }),
        "seed": st.integers(0, 2**31),
        "strategy": strategies(layers),
        "strategies": st.lists(strategies(layers), min_size=1, max_size=3),
        "sweep": st.fixed_dictionaries({
            "layers": st.lists(st.integers(1, max(1, layers - 1)), min_size=1, max_size=3),
            "ratios": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)}),
        "margin_onset_layer": st.integers(1, layers),
    }))
    from_file = draw(st.integers(0, 3)) == 3
    if from_file:
        # image rows mostly of the model's width, some entries not finite
        entry = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([float("nan"), float("inf")]))
        row = st.lists(entry, min_size=width, max_size=width + draw(st.integers(0, 1)))
        fixture = draw(st.fixed_dictionaries({
            "image": st.lists(row, max_size=12),
            "instruction": st.lists(st.integers(-1, 9), min_size=1, max_size=3),
            "answer": st.lists(st.integers(-1, 9), max_size=2),
        }))
        config["fixture"] = {"path": fixture_path}
    else:
        image_tokens = draw(st.integers(0, 24))
        fixture = config["fixture"] = draw(st.fixed_dictionaries({
            "image_tokens": st.just(image_tokens),
            "marked_count": st.integers(0, min(6, image_tokens)),
            "instruction_length": st.integers(1, 3), "answer_length": st.integers(0, 2),
            "marker_dims": st.lists(st.integers(0, max(0, width - 2)), min_size=1, max_size=3),
            "marked_placement": st.sampled_from(["high", "low", "random"]),
            # up to 1e308, where the generated entries or their squares overflow
            "noise": st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e308)),
            "amplitude": st.one_of(st.floats(-2.0, 2.0), st.floats(-1e308, 1e308)),
        }))
    huge = draw(st.integers(0, 7)) == 0
    if huge:
        node = draw(st.sampled_from([config, config["model"]] + ([] if from_file else [fixture])))
        node[draw(st.sampled_from(sorted(SIZE_FIELDS & set(node))))] = draw(HUGE)
    elif draw(st.booleans()):
        node = draw(st.sampled_from([config, config["model"], config["sweep"], fixture]))
        key = draw(st.sampled_from([*node, "extra"]))
        if key in node and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(WRONG)
    return config, json.dumps(fixture) if from_file else None, huge


FUZZ_FLAGS = {
    "run": ["--seed"],
    "compare": ["--strategies", "--out"],
    "sweep": ["--layers", "--ratios"],
}
# integers past harness.MAX_COUNT, which every flag and config refuses
PAST_BOUND = [2**63, -2**63, 2**64 + 7, 10**30]


def past_bound(value: str) -> bool:
    """Whether a flag's text holds an integer past harness.MAX_COUNT."""
    return any(abs(int(x)) > harness.MAX_COUNT for x in value.split(",") if x.lstrip("-").isdigit())


FLAG_VALUES = {
    "--seed": st.one_of(st.integers(0, 2**40), st.sampled_from(PAST_BOUND)).map(str),
    "--strategies": st.lists(st.sampled_from(["vanilla", "pdrop", "fastv", "random", "uniform",
                                              "x"]), min_size=1, max_size=3).map(",".join),
    "--out": st.just("compare.json"),
    "--layers": st.sampled_from(["1", "2,1", "0", "-1", "9", "a", "1,,2",
                                 *(f"1,{n}" for n in PAST_BOUND), str(10**30)]),
    "--ratios": st.sampled_from(["0.5", "0,1", "nan"]),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_whole_run_ends_with_a_code_and_a_line(data):
    # every generated run, compare or sweep returns 0, 2 or 3 without
    # raising or warning, and 2 for a flag past the bound; a nonzero code
    # comes with one error line of at most 200 characters
    with tempfile.TemporaryDirectory() as workdir:
        config, fixture_file, huge = data.draw(configs(os.path.join(workdir, "fixture.json")))
        with open(os.path.join(workdir, "config.json"), "w") as fh:
            json.dump(config, fh)
        if fixture_file is not None:
            with open(os.path.join(workdir, "fixture.json"), "w") as fh:
                fh.write(fixture_file)
        command = data.draw(st.sampled_from(sorted(FUZZ_FLAGS)))
        argv, past = [command, "--config", os.path.join(workdir, "config.json")], False
        for flag in data.draw(st.lists(st.sampled_from(FUZZ_FLAGS[command]), unique=True)):
            value = data.draw(FLAG_VALUES[flag])
            argv += [flag, os.path.join(workdir, value) if value.endswith(".json") else value]
            past = past or (flag in ("--seed", "--layers") and past_bound(value))
        if command == "sweep":
            argv += ["--out", os.path.join(workdir, "sweep.csv")]
        out, err = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            code = main(argv)
    assert code in ((2,) if huge or past else (0, 2, 3))
    if code:
        assert err.getvalue().startswith(("error: ", "i/o error: "))
        assert err.getvalue().count("\n") == 1 and len(err.getvalue()) <= 200
    else:
        assert err.getvalue() == "" and "NaN" not in out.getvalue()


# counts from a few to 2**40, past pruner.MAX_STAGES and any model's layers,
# and past harness.MAX_COUNT
COUNT = st.one_of(st.integers(-1, 9), st.integers(0, 2**40), st.sampled_from(PAST_BOUND)).map(str)
RATIO = st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0, float("nan"), float("inf")]))
COST_FLAGS = {
    "--lambda": RATIO.map(str), "--stages": COUNT, "--drop-layer": COUNT, "--tokens": COUNT,
    "--strategy": st.sampled_from(["vanilla", "pdrop", "fastv", "uniform", "random", "x"]),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cost_and_schedule_end_with_a_code_and_a_line(data):
    # every generated cost or schedule, at stage and layer counts up to
    # 2**40, returns 0 or 2 without raising or warning, and 2 for a count
    # past the bound; 2 comes with one error line. Each value is joined to
    # its flag, so that argparse takes "-1e-05" as a value
    if data.draw(st.booleans()):
        command = "schedule"
        flags = {"--layers": data.draw(COUNT), "--stages": data.draw(COUNT),
                 "--lambda": str(data.draw(RATIO)), "--tokens": data.draw(COUNT)}
    else:
        command = "cost"
        flags = {flag: data.draw(COUNT) for flag in ("--n", "--layers", "--d", "--m")}
        for flag in data.draw(st.lists(st.sampled_from(sorted(COST_FLAGS)), unique=True)):
            flags[flag] = data.draw(COST_FLAGS[flag])
    argv = [command, *(f"{flag}={value}" for flag, value in flags.items())]
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in ((2,) if any(map(past_bound, flags.values())) else (0, 2))
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == "" and json.loads(out.getvalue())
