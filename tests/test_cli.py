import json
import time

import pytest

from pdrop.cli import main

TOY_MODEL = {
    "num_layers": 8, "hidden_size": 64, "num_heads": 4,
    "head_dim": 16, "ffn_intermediate": 172, "vocab_size": 256,
}


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
                        "--strategy", "fastv", "--drop-layer", "2", "--keep-ratio", "0.5")
    assert code == 0
    assert round(json.loads(out)["total"] / 1e12, 2) == 2.01


def test_cost_vanilla_default(capsys):
    code, out = run_cli(capsys, "cost", "--n", "576", "--layers", "32",
                        "--d", "4096", "--m", "11008")
    assert code == 0
    assert round(json.loads(out)["total"] / 1e12, 2) == 3.82


def test_cost_strategy_default_keep_ratio(capsys):
    # --lambda (alias --keep-ratio) defaults to None; leaving it unset must
    # not hand the strategy a ratio of None
    code, out = run_cli(capsys, "cost", "--n", "576", "--layers", "32",
                        "--d", "4096", "--m", "11008", "--strategy", "pdrop")
    assert code == 0
    assert json.loads(out)["avg_tokens"] == 270.0


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


def test_run_with_masks(capsys, config_file, tmp_path):
    masks = tmp_path / "masks.json"
    code, out = run_cli(capsys, "run", "--config", config_file,
                        "--seed", "11", "--emit-masks", str(masks))
    assert code == 0
    report = json.loads(out)
    assert report["strategy"] == "pdrop"
    assert report["recall"] == 1.0
    assert [len(s["kept"]) for s in json.loads(masks.read_text())["stages"]] == [32, 16, 8]


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
])
def test_run_mistyped_config_value_is_config_error(capsys, tmp_path, override):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": TOY_MODEL, "fixture": {"image_tokens": 16}, **override}))
    code = main(["run", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_sweep_tiny_ratio_step_is_rejected_at_once(capsys, config_file, tmp_path):
    start = time.perf_counter()
    code = main(["sweep", "--config", config_file, "--layers", "2",
                 "--ratios", "0:1:1e-9", "--out", str(tmp_path / "sweep.csv")])
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_csv(capsys, config_file, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _ = run_cli(capsys, "sweep", "--config", config_file,
                      "--layers", "2,4", "--ratios", "0.25,0.5", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "layer,keep_ratio,recall,kept_count,flops"
    assert len(lines) == 5


def test_sweep_range_syntax(capsys, config_file, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _ = run_cli(capsys, "sweep", "--config", config_file,
                      "--layers", "2", "--ratios", "0.25:1.0:0.25", "--out", str(out_path))
    assert code == 0
    assert len(out_path.read_text().strip().splitlines()) == 5  # header + 4 ratios


def test_compare(capsys, config_file, tmp_path):
    out_path = tmp_path / "compare.json"
    code, _ = run_cli(capsys, "compare", "--config", config_file,
                      "--strategies", "vanilla,pdrop,fastv,random", "--out", str(out_path))
    assert code == 0
    reports = json.loads(out_path.read_text())
    assert [r["strategy"] for r in reports] == ["vanilla", "pdrop", "fastv", "random"]
    by_name = {r["strategy"]: r for r in reports}
    assert by_name["pdrop"]["recall"] == 1.0
    assert by_name["pdrop"]["cost"]["total"] < by_name["vanilla"]["cost"]["total"]


def test_compare_same_seed_reproducible(capsys, config_file):
    code, out1 = run_cli(capsys, "compare", "--config", config_file)
    code2, out2 = run_cli(capsys, "compare", "--config", config_file)
    assert code == code2 == 0
    assert out1 == out2
