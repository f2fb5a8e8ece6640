import contextlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdrop import harness, layout, numkernel, pruner, toymodel
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


@pytest.fixture
def config_file(tmp_path):
    cfg = {
        "model": TOY_MODEL,
        "seed": 7,
        "fixture": {"image_tokens": 64, "marked_count": 4},
        "strategy": {"name": "pdrop", "stages": 4, "keep_ratio": 0.5},
        "strategies": ["vanilla", "pdrop", {"name": "fastv"}, {"name": "random", "seed": 1}],
        "sweep": {"layers": [2, 4], "ratios": [0.25, 0.5]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


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


@pytest.mark.parametrize("flags", [
    ["--strategy", "fastv", "--stages", "7"],
    ["--strategy", "vanilla", "--lambda", "0.5"],
    ["--strategy", "uniform", "--drop-layer", "2"],
    ["--lambda", "0.5", "--tokens", "64"],
    ["--stages", "4"],
])
def test_cost_flag_the_strategy_lacks_is_config_error(capsys, flags):
    code = main(["cost", "--n", "576", "--layers", "32", "--d", "4096", "--m", "11008", *flags])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("flags, named", [
    (["--lambda", "0.5", "--tokens", "64"], "'pdrop' takes no --tokens"),
    (["--strategy", "fastv", "--stages", "7"], "'fastv' takes no --stages"),
    (["--strategy", "vanilla", "--lambda", "0.5"], "'vanilla' takes no --lambda"),
    (["--strategy", "uniform", "--drop-layer", "2", "--stages", "3"],
     "'uniform' takes no --stages, --drop-layer"),
])
def test_cost_error_names_the_flag_typed(capsys, flags, named):
    code = main(["cost", "--n", "576", "--layers", "32", "--d", "4096", "--m", "11008", *flags])
    assert code == 2
    assert capsys.readouterr().err == f"error: strategy {named}\n"


def test_schedule(capsys):
    code, out = run_cli(capsys, "schedule", "--layers", "32", "--stages", "4",
                        "--lambda", "0.5", "--tokens", "576")
    assert code == 0
    obj = json.loads(out)
    assert obj["boundaries"] == [8, 16, 24]
    assert obj["stage_tokens"] == [576, 288, 144, 72]


def test_schedule_config_error_exit_code(capsys):
    code, _ = run_cli(capsys, "schedule", "--layers", "4", "--stages", "8",
                      "--lambda", "0.5", "--tokens", "16")
    assert code == 2


@pytest.mark.parametrize("command", [
    ["schedule", "--lambda", "0.5", "--tokens", "1"],
    ["cost", "--lambda", "0.5", "--n", "1", "--d", "64", "--m", "172"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("past", [0, 1], ids=["at_bound", "past_bound"])
def test_stage_count_bound(capsys, command, past):
    # a schedule's lists are as long as its stage count, so a count past
    # the bound is refused before any of them is built
    stages = str(pruner.MAX_STAGES + past)
    start = time.perf_counter()
    code = main([*command, "--layers", stages, "--stages", stages])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2 * past
    if past:
        assert captured.out == ""
        assert captured.err == (f"error: need 1 <= stages <= layers and {pruner.MAX_STAGES}, "
                                f"got S={stages}, J={stages}\n")
    else:
        assert captured.err == "" and json.loads(captured.out)


@pytest.mark.parametrize("geometry", [["--d", "-4", "--m", "16"], ["--d", "0", "--m", "16"],
                                      ["--d", "64", "--m", "-1"], ["--d", "64", "--m", "0"]])
@pytest.mark.parametrize("strategy", [[], ["--strategy", "fastv"]])
def test_cost_nonpositive_geometry_is_config_error(capsys, geometry, strategy):
    code = main(["cost", "--n", "16", "--layers", "8", "--lambda", "0.5", *geometry, *strategy])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("strategy", [
    ["vanilla"], ["pdrop", "--lambda", "0.5", "--stages", "4"],
    ["fastv", "--drop-layer", "2", "--lambda", "0.5"], ["uniform", "--tokens", "288"],
    ["random", "--lambda", "0.5", "--stages", "4"],
], ids=lambda strategy: strategy[0])
def test_cost_zero_ffn_size_is_config_error_for_every_strategy(capsys, strategy):
    # each strategy with the flags it takes, at 7B geometry
    code = main(["cost", "--n", "576", "--layers", "32", "--d", "4096", "--m", "0",
                 "--strategy", *strategy])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: hidden size d and FFN size m must be positive, got d=4096, m=0\n"


def test_run_with_masks(capsys, config_file):
    code, out = run_cli(capsys, "run", "--config", config_file, "--seed", "11")
    assert code == 0
    report = json.loads(out)
    assert report["strategy"] == "pdrop"
    assert report["recall"] == 1.0
    assert [len(s["kept"]) for s in report["stages"]] == [32, 16, 8]


def test_run_missing_config_is_io_error(capsys, tmp_path):
    code, _ = run_cli(capsys, "run", "--config", str(tmp_path / "missing.json"))
    assert code == 3


@pytest.mark.parametrize("override", [
    {"strategy": {"name": "pdrop", "stages": "four"}},
    {"seed": "x"},
    {"fixture": {"image_tokens": "many"}},
    {"fixture": {"image_tokens": 16, "noise": float("nan")}},
    {"fixture": {"path": 0}},
    {"fixture": {"image_tokens": -5, "marked_count": -10}},
    {"fixture": {"image_tokens": 16, "marker_dims": [99]}},
    {"fixture": {"image_tokens": 64, "marked_count": -1, "marked_placement": "random"}},
    {"fixture": {"image_tokens": 16, "answer_length": -1}},
    {"fixture": {"image_tokens": 16, "marker_dims": list(range(TOY_MODEL["hidden_size"]))}},
    {"strategy": {"name": "pdrop", "keep_ration": 0.3}},
    {"seed": 1.5},
    {"model": {**TOY_MODEL, "num_layers": 8.9}},
    {"strategy": {"name": "pdrop", "keep_ratio": True}},
    {"fixture": {"image_tokens": 16, "noise": True}},
    {"model": {**TOY_MODEL, "rope_theta": True}},
    {"sweep": {"ratios": [0.5, False]}},
    # a section given but empty is refused, not replaced by its default
    *({"fixture": empty} for empty in (0, False, [], "", None)),
    *({"sweep": empty} for empty in (0, False, [], "", None)),
    # a misspelled key at any level is refused, not ignored
    {"stratgy": "fastv"},
    {"sweep": {"layer": [2], "ratios": [0.5]}},
    {"fixture": {"path": "fixture.json", "image_tokens": 16}},
    # json reads NaN and Infinity; a NaN setting passed a `<= 0` test and
    # gave an all-NaN forward that exited 0
    {"model": {**TOY_MODEL, "rope_theta": float("nan")}, "strategy": "vanilla"},
    {"model": {**TOY_MODEL, "rmsnorm_eps": float("nan")}, "strategy": "vanilla"},
    {"model": {**TOY_MODEL, "rope_theta": float("inf")}, "strategy": "vanilla"},
    {"model": {**TOY_MODEL, "rmsnorm_eps": float("inf")}, "strategy": "vanilla"},
])
def test_run_mistyped_config_value_is_config_error(capsys, tmp_path, override):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": TOY_MODEL, "fixture": {"image_tokens": 16}, **override}))
    code = main(["run", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    if override == {"stratgy": "fastv"}:
        assert err == "error: config: unknown fields ['stratgy']\n"


LONG = "a" * 100_000


@pytest.mark.parametrize("entry, argv", [
    ('"seed": ' + "[" * 900 + "]" * 900, ["run"]),
    (f'"seed": "{LONG}"', ["run"]),
    (f'"strategy": "{LONG}"', ["run"]),
    (f'"{LONG}": 0', ["run"]),
    (f'"fixture": {{"marked_placement": "{LONG}"}}', ["run"]),
    (None, ["compare", "--strategies", LONG]),
    (None, ["sweep", "--ratios", "0.5", "--layers", "1," + LONG]),
    (None, ["sweep", "--layers", "1", "--ratios", "0.5," + LONG]),
], ids=["nested_seed", "long_seed", "long_strategy_name", "long_unknown_key", "long_placement",
        "long_strategies_flag", "long_layers_flag", "long_ratios_flag"])
def test_long_bad_value_is_quoted_cut(capsys, tmp_path, entry, argv):
    # an error quotes a bad value in at most errors.QUOTED_CHARS characters,
    # however long or deeply nested it is; ``entry`` is a config entry's JSON
    text = json.dumps({"model": TOY_MODEL})
    path = tmp_path / "config.json"
    path.write_text(text if entry is None else f"{text[:-1]}, {entry}}}")
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(tmp_path / "sweep.csv")]
    assert main([*argv, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) <= 200 and "..." in err


# a JSON integer of 4,000 digits, under Python's digit limit for parsing
HUGE = int("9" * 4000)


@pytest.mark.parametrize("override", [
    {"strategy": {"name": "pdrop", "stages": HUGE}},
    {"strategy": {"name": "fastv", "drop_layer": HUGE}},
    {"model": {**TOY_MODEL, "num_layers": HUGE}},
    {"model": {**TOY_MODEL, "num_layers": -HUGE}},
    {"model": {**TOY_MODEL, "head_dim": HUGE}},
    {"fixture": {"image_tokens": HUGE}},
    {"fixture": {"image_tokens": 16, "marked_count": HUGE}},
    {"fixture": {"image_tokens": 16, "instruction_length": HUGE}},
    {"fixture": {"image_tokens": 16, "answer_length": -HUGE}},
], ids=["stages", "drop_layer", "num_layers", "negative_num_layers", "head_dim", "image_tokens",
        "marked_count", "instruction_length", "answer_length"])
def test_huge_integer_is_quoted_cut(capsys, tmp_path, override):
    # a range or bound error quotes an integer it refuses, however many
    # digits it has, in at most errors.QUOTED_CHARS characters
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": TOY_MODEL, "fixture": {"image_tokens": 16}, **override}))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) <= 200 and "..." in err


def test_huge_cost_flag_is_quoted_cut(capsys):
    assert main(["cost", "--n", "576", "--layers", "32", "--d", "-" + "9" * 4000, "--m", "16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 200


def test_long_missing_fixture_path_is_quoted_cut(capsys, tmp_path):
    # the operating system's error names a config-supplied path, which the
    # line quotes cut
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": TOY_MODEL, "fixture": {"path": LONG}}))
    assert main(["run", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert len(err) <= 200 and "..." in err


@pytest.mark.parametrize("ratios", ["0.1:0.9:0", "0.1:0.9:-0.2", "0.1:inf:0.2", "0.1:0.9", "a,b"])
def test_sweep_bad_ratios_are_config_errors(capsys, config_file, tmp_path, ratios):
    code = main(["sweep", "--config", config_file, "--layers", "2",
                 "--ratios", ratios, "--out", str(tmp_path / "sweep.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_run_non_2d_image_fixture_is_input_error(capsys, tmp_path):
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps({"image": [[[0.0] * 2] * 64] * 2, "instruction": [1, 2]}))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": TOY_MODEL, "fixture": {"path": str(fixture)}}))
    code = main(["run", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "2-D" in err and err.count("\n") == 1


def test_run_coerces_fixture_fields(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": TOY_MODEL, "fixture": {"image_tokens": "16"}}))
    code, out = run_cli(capsys, "run", "--config", str(path))
    assert code == 0
    assert [len(s["kept"]) for s in json.loads(out)["stages"]] == [8, 4, 2]


def test_sweep_bad_layers_is_config_error(capsys, config_file, tmp_path):
    code = main(["sweep", "--config", config_file, "--layers", "a",
                 "--ratios", "0.5", "--out", str(tmp_path / "sweep.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


SIZE_COMMANDS = {
    "run": ["run"],
    "compare": ["compare", "--strategies", "vanilla,pdrop"],
    "sweep": ["sweep", "--layers", "2", "--ratios", "0.5"],
}


@pytest.mark.parametrize("command", SIZE_COMMANDS)
@pytest.mark.parametrize("image_tokens, code", [(16, 0), (17, 2)], ids=["at_bound", "past_bound"])
def test_image_size_bound(capsys, monkeypatch, tmp_path, command, image_tokens, code):
    # the bound shrunk to 16 toy-width image tokens, so nothing large is
    # allocated on either side of it
    monkeypatch.setattr(layout, "MAX_IMAGE_ELEMENTS", 16 * TOY_MODEL["hidden_size"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": TOY_MODEL, "fixture": {"image_tokens": image_tokens}}))
    argv = [*SIZE_COMMANDS[command], "--config", str(path)]
    if command != "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err == (f"error: {image_tokens} image tokens x hidden size 64 exceeds "
                       f"the bound of 1024 elements\n")


def fixture_config(tmp_path, fixture_text):
    fixture = tmp_path / "fixture.json"
    fixture.write_bytes(fixture_text if isinstance(fixture_text, bytes) else fixture_text.encode())
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": TOY_MODEL, "fixture": {"path": str(fixture)}}))
    return str(path)


@pytest.mark.parametrize("past", [0, 1], ids=["at_bound", "past_bound"])
@pytest.mark.parametrize("case", ["weights", "generated_text", "fixture_text"])
def test_element_bound(capsys, monkeypatch, tmp_path, case, past):
    # the bound shrunk to the toy model's weights, or to the forward of a
    # text long enough that the weights fit under it; past it, one line and
    # exit 2, before the weights, the ids or the forward's buffers are built
    w = init_model(TOY_CONFIG, 0)
    weights = sum(a.size for lw in w.layers for a in vars(lw).values()) + w.embedding.size * 2
    fixture = {"image_tokens": 16}
    if case == "weights":
        bound, what = weights, "model weights"
    elif case == "generated_text":
        fixture["instruction_length"] = 1000
        n = 16 + 1000 + 1
        bound, what = forward_elements(TOY_CONFIG, n), f"a forward of {n} tokens"
    else:
        fixture = {"path": str(tmp_path / "fixture.json")}
        (tmp_path / "fixture.json").write_text(json.dumps(
            {"image": [[0.0] * 64] * 4, "instruction": [1] * 1000}))
        bound, what = forward_elements(TOY_CONFIG, 1004), "a forward of 1004 tokens"
    assert bound >= weights
    monkeypatch.setattr(layout, "MAX_ELEMENTS", bound - past)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": TOY_MODEL, "fixture": fixture}))
    assert main(["run", "--config", str(path)]) == 2 * past
    if past:
        assert capsys.readouterr().err == (
            f"error: {what}: {bound} elements exceed the bound of {bound - 1}\n")


def test_deep_tiny_model_refused(capsys, tmp_path):
    # 8192 layers of hidden size 2: 26 elements each, charged 4096 each
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"num_layers": 8192, "hidden_size": 2, "num_heads": 1,
                                          "head_dim": 2, "ffn_intermediate": 1, "vocab_size": 2}}))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: model weights: 33554440 elements exceed the bound of 33554432\n")


def test_huge_vocabulary_refused_before_any_weight_is_built(capsys, monkeypatch, tmp_path):
    # 2**26 vocabulary rows at the toy width, against the real MAX_ELEMENTS:
    # the embedding and head alone would hold 2**33 elements (64 GiB)
    assert layout.MAX_ELEMENTS == 1 << 25
    monkeypatch.setattr(harness, "build_marker_model", None)  # reached only past the check
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {**TOY_MODEL, "vocab_size": 1 << 26}}))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: model weights: 8590330880 elements exceed the bound of 33554432\n")


def test_long_fixture_text_refused_before_the_forward_allocates(capsys, monkeypatch, tmp_path):
    # a 0.3 MB fixture of 100,000 instruction ids passes the file and id
    # checks; at the toy width its forward would hold 47M elements
    path = fixture_config(tmp_path, json.dumps({"image": [], "instruction": [1] * 100_000}))
    monkeypatch.setattr(toymodel, "_embed", None)  # reached only past the check
    assert main(["run", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a forward of 100000 tokens: ") and err.count("\n") == 1


def test_fixture_file_past_image_size_bound(capsys, monkeypatch, tmp_path, forward_calls):
    # a fixture file's image is counted once parsed, before it becomes an
    # array, and refused there, before any forward; the at-bound side is
    # test_fixture_file_byte_size_bound[at_bound]
    monkeypatch.setattr(layout, "MAX_IMAGE_ELEMENTS", 4 * TOY_MODEL["hidden_size"] - 1)
    path = fixture_config(tmp_path, json.dumps({"image": [[0.0] * 64] * 4, "instruction": [1, 2]}))
    assert main(["run", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err == "error: 4 image tokens x hidden size 64 exceeds the bound of 255 elements\n"
    assert forward_calls == []


@pytest.mark.parametrize("extra, code", [(0, 0), (1, 2)], ids=["at_bound", "past_bound"])
def test_fixture_file_byte_size_bound(capsys, monkeypatch, tmp_path, extra, code):
    # the bound shrunk to 4 toy-width image tokens, which the fixture holds:
    # a file of more than FIXTURE_BYTES_PER_ELEMENT * 256 bytes is refused
    # before it is parsed, however little its padding holds
    monkeypatch.setattr(layout, "MAX_IMAGE_ELEMENTS", 4 * TOY_MODEL["hidden_size"])
    limit = layout.FIXTURE_BYTES_PER_ELEMENT * 4 * TOY_MODEL["hidden_size"]
    text = json.dumps({"image": [[0.0] * 64] * 4, "instruction": [1, 2]})
    path = fixture_config(tmp_path, text.ljust(limit + extra))
    assert main(["run", "--config", path]) == code
    err = capsys.readouterr().err
    if code:
        assert err == (f"error: fixture file {tmp_path / 'fixture.json'} holds {limit + 1} "
                       f"bytes, past the bound of {limit}\n")


@pytest.mark.parametrize("extra, code", [(0, 0), (1, 2)], ids=["at_bound", "past_bound"])
def test_config_file_byte_size_bound(capsys, monkeypatch, tmp_path, extra, code):
    # the bound shrunk to the size of a small config: one byte more is
    # refused before json.load runs, however little its padding holds
    text = json.dumps({"model": TOY_MODEL, "fixture": {"image_tokens": 16}})
    limit = len(text) + 10
    monkeypatch.setattr(harness, "MAX_CONFIG_BYTES", limit)
    path = tmp_path / "config.json"
    path.write_text(text.ljust(limit + extra))
    loaded = []
    monkeypatch.setattr(json, "load", lambda fh: loaded.append(fh) or json.loads(fh.read()))
    assert main(["run", "--config", str(path)]) == code
    assert len(loaded) == 1 - extra
    if code:
        assert capsys.readouterr().err == (
            f"error: config file {path} holds {limit + 1} bytes, past the bound of {limit}\n")


@pytest.mark.parametrize("route", ["generated", "file"])
def test_image_row_whose_squares_overflow_is_input_error(capsys, tmp_path, forward_calls, route):
    # finite entries whose squares pass the float64 range: the first RMS norm
    # would zero the row, so the sequence refuses it, in one line, before any
    # forward and without a RuntimeWarning
    if route == "generated":  # marked rows 12..15 carry the amplitude
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": TOY_MODEL,
                                    "fixture": {"image_tokens": 16, "amplitude": 1e160}}))
        path, row = str(path), 12
    else:
        image = [[0.0] * 64] * 3 + [[1e160] * 64]
        path, row = fixture_config(tmp_path, json.dumps({"image": image, "instruction": [1, 2]})), 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", path]) == 2
    assert capsys.readouterr().err == (
        f"error: image embedding row {row}: its sum of squares overflows float64\n")
    assert forward_calls == []


def test_image_row_just_under_the_overflow_runs(capsys, tmp_path):
    # 64 equal entries whose squares rmsnorm_rows sums to a finite value, 2e-12
    # under the overflow
    top = float(np.sqrt(np.finfo(float).max / 64) * (1 - 1e-12))
    image = [[0.0] * 64] * 3 + [[top] * 64]
    path = fixture_config(tmp_path, json.dumps({"image": image, "instruction": [1, 2]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", path]) == 0
    assert capsys.readouterr().err == ""


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


# JSON that json.load refuses with an error other than JSONDecodeError
UNREADABLE_JSON = [b'\xff{}', "[" * 100_000, '{"seed": ' + "1" * 5000 + "}"]
UNREADABLE_IDS = ["not_utf8", "deep_arrays", "long_int"]


@pytest.mark.parametrize("text", [
    "{", "[1, 2]", '{"image": [], "instruction": "ab"}', '{"image": [], "instruction": [[1]]}',
    '{"image": [], "instruction": [1e30]}', *UNREADABLE_JSON,
], ids=["invalid_json", "not_object", "string_ids", "nested_ids", "huge_id", *UNREADABLE_IDS])
def test_malformed_fixture_file_is_input_error(capsys, tmp_path, text):
    assert main(["run", "--config", fixture_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["{", *UNREADABLE_JSON], ids=["invalid_json", *UNREADABLE_IDS])
def test_malformed_config_file_is_config_error(capsys, tmp_path, text):
    path = tmp_path / "config.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: invalid JSON: ") and err.count("\n") == 1
    with pytest.raises(ConfigError):
        harness.load_spec(path)


@pytest.fixture
def forward_calls(monkeypatch):
    """Records the number of layers of each forward a command runs."""
    calls = []

    def counted(weights, *args, **kwargs):
        calls.append(weights.config.num_layers)
        return forward_pruned(weights, *args, **kwargs)

    def counted_plans(weights, *args, **kwargs):
        calls.append(weights.config.num_layers)
        return forward_plans(weights, *args, **kwargs)

    monkeypatch.setattr(harness, "forward_pruned", counted)
    monkeypatch.setattr(harness, "forward_plans", counted_plans)
    return calls


@pytest.mark.parametrize("layers, ratios, message", [
    ("2,8", "0.1,0.3,0.5,0.7,0.9", "drop layer 8 must be in [1, 8)"),
    ("1,2,4,6", "0.1,0.3,0.5,0.7,1.5", "keep_ratio must be in [0, 1], got 1.5"),
], ids=["layer_past_last", "ratio_in_late_cell"])
def test_sweep_bad_cell_rejected_before_any_forward(capsys, config_file, tmp_path,
                                                    forward_calls, layers, ratios, message):
    code = main(["sweep", "--config", config_file, "--layers", layers,
                 "--ratios", ratios, "--out", str(tmp_path / "sweep.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert forward_calls == []


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
    # --out gets the bytes that stdout gets
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


@pytest.mark.parametrize("strategies, argv, message", [
    (["vanilla"], ["--strategies", "vanilla,pdrop,fastv,random,uniform"],
     "uniform compression has no forward semantics; it is cost-only"),
    (["vanilla", "pdrop", {"name": "fastv", "drop_layer": 9}], [],
     "drop layer 9 must be in [1, 8)"),
], ids=["uniform_last", "fastv_past_last_layer"])
def test_compare_config_error_before_any_layer_forward(capsys, tmp_path, layer_forwards,
                                                       strategies, argv, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": TOY_MODEL, "fixture": {"image_tokens": 64},
                                "strategies": strategies}))
    assert main(["compare", "--config", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert layer_forwards == []


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


@pytest.mark.parametrize("argv, code, message", [
    (["sweep", "--layers", ""], 2, "error: bad layer list ''\n"),
    (["sweep", "--ratios", ""], 2, "error: bad ratio list ''\n"),
    (["compare", "--strategies", ""], 2, "error: unknown strategy ''\n"),
    (["compare", "--out", ""], 3, "i/o error: "),
], ids=["layers", "ratios", "strategies", "out"])
def test_flag_given_empty_is_refused(capsys, config_file, tmp_path, argv, code, message):
    # an empty flag is not a missing one: it neither falls back to the
    # config nor skips its output
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(tmp_path / "sweep.csv")]
    assert main([*argv, "--config", config_file]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("argv, config, message", [
    (["cost", "--n", "576", "--layers", "32", "--d", "4096", "--m", "11008",
      "--strategy", "fastv", "--keep-ratio", "0.5"], None, None),
    (["run", "--emit-masks", "masks.json"], None, None),
    (["run"], {"strategy": "pyramiddrop"}, "unknown strategy 'pyramiddrop'"),
    (["run"], {"strategy": {"name": "qformer", "token_count": 64}}, "unknown strategy 'qformer'"),
    (["compare", "--strategies", "vanilla,pyramiddrop"], None, "unknown strategy 'pyramiddrop'"),
    (["compare", "--strategies", "qformer"], None, "unknown strategy 'qformer'"),
    (["sweep", "--layers", "2", "--ratios", "0.1:0.9:0.2"], None, "bad ratio list '0.1:0.9:0.2'"),
], ids=["keep_ratio", "emit_masks", "pyramiddrop_config", "qformer_config",
        "pyramiddrop_flag", "qformer_flag", "ratio_range"])
def test_removed_form_exits_2(capsys, config_file, tmp_path, argv, config, message):
    # each input has one spelling: a removed flag is argparse's usage error,
    # a removed strategy name or ratio range one error line
    if argv[0] != "cost":
        if config is not None:
            config_file = tmp_path / "removed.json"
            config_file.write_text(json.dumps({"model": TOY_MODEL, **config}))
        argv = [*argv, "--config", str(config_file)]
    if argv[0] == "sweep":
        argv += ["--out", str(tmp_path / "sweep.csv")]
    if message is None:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    else:
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_model_checked_before_fixture_file_is_read(capsys, tmp_path):
    # the marker model is built first for either fixture kind, so a bad
    # margin onset is reported before a missing fixture file
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": TOY_MODEL, "margin_onset_layer": 9,
                                "fixture": {"path": str(tmp_path / "missing.json")}}))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: margin onset layer 9 outside [1, 8]\n"


def test_compare_same_seed_reproducible(capsys, config_file):
    code, out1 = run_cli(capsys, "compare", "--config", config_file)
    code2, out2 = run_cli(capsys, "compare", "--config", config_file)
    assert code == code2 == 0
    assert out1 == out2


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
], ids=["ok", "config_error", "io_error"])
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


# --- whole-run fuzz -----------------------------------------------------------

# values of a wrong type or out of range, put in place of a generated field
WRONG = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 3),
                  st.floats(-10.0, 10.0), st.sampled_from([float("nan"), float("inf")]),
                  st.lists(st.integers(-1, 9), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
# sizes past layout.MAX_ELEMENTS, put in place of a model or generated
# fixture size, which the bounds refuse before anything of that size is built
HUGE = st.one_of(st.integers(layout.MAX_ELEMENTS + 1, 2**70), st.floats(1e20, 1e300))
SIZE_FIELDS = {"num_layers", "hidden_size", "ffn_intermediate", "vocab_size", "image_tokens",
               "instruction_length", "answer_length"}


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
    fixture size is HUGE; in half of the others one field somewhere in them
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
            "noise": st.floats(0.0, 1.0), "amplitude": st.floats(-2.0, 2.0),
        }))
    huge = draw(st.integers(0, 7)) == 0
    if huge:
        node = draw(st.sampled_from([config["model"]] if from_file else [config["model"], fixture]))
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
FLAG_VALUES = {
    "--seed": st.integers(0, 2**40).map(str),
    "--strategies": st.lists(st.sampled_from(["vanilla", "pdrop", "fastv", "random", "uniform",
                                              "x"]), min_size=1, max_size=3).map(",".join),
    "--out": st.just("compare.json"),
    "--layers": st.sampled_from(["1", "2,1", "0", "-1", "9", "a", "1,,2"]),
    "--ratios": st.sampled_from(["0.5", "0,1", "nan"]),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_whole_run_ends_with_a_code_and_a_line(data):
    # every generated run, compare or sweep returns 0, 2 or 3 without
    # raising or warning; a nonzero code comes with one error line
    with tempfile.TemporaryDirectory() as workdir:
        config, fixture_file, huge = data.draw(configs(os.path.join(workdir, "fixture.json")))
        with open(os.path.join(workdir, "config.json"), "w") as fh:
            json.dump(config, fh)
        if fixture_file is not None:
            with open(os.path.join(workdir, "fixture.json"), "w") as fh:
                fh.write(fixture_file)
        command = data.draw(st.sampled_from(sorted(FUZZ_FLAGS)))
        argv = [command, "--config", os.path.join(workdir, "config.json")]
        for flag in data.draw(st.lists(st.sampled_from(FUZZ_FLAGS[command]), unique=True)):
            value = data.draw(FLAG_VALUES[flag])
            argv += [flag, os.path.join(workdir, value) if value.endswith(".json") else value]
        if command == "sweep":
            argv += ["--out", os.path.join(workdir, "sweep.csv")]
        out, err = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            code = main(argv)
    assert code in ((2,) if huge else (0, 2, 3))
    if code:
        assert err.getvalue().startswith(("error: ", "i/o error: "))
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == "" and "NaN" not in out.getvalue()


# counts from a few to 2**40, past pruner.MAX_STAGES and any model's layers
COUNT = st.one_of(st.integers(-1, 9), st.integers(0, 2**40)).map(str)
RATIO = st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0, float("nan"), float("inf")]))
COST_FLAGS = {
    "--lambda": RATIO.map(str), "--stages": COUNT, "--drop-layer": COUNT, "--tokens": COUNT,
    "--strategy": st.sampled_from(["vanilla", "pdrop", "fastv", "uniform", "random", "x"]),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cost_and_schedule_end_with_a_code_and_a_line(data):
    # every generated cost or schedule, at stage and layer counts up to
    # 2**40, returns 0 or 2 without raising or warning; 2 comes with one
    # error line. Each value is joined to its flag, so that argparse takes
    # "-1e-05" as a value
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
    assert code in (0, 2)
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == "" and json.loads(out.getvalue())
