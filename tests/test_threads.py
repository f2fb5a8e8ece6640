"""What the BLAS thread count may change. A random-weight forward's logits
and hidden states may differ in their last bits between one and two BLAS
threads; its kept masks and its schedule may not, and neither may the
`pdrop run` report of a marker-model config, digest included. At a fixed
BLAS thread count a forward repeats bit for bit."""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
CHILD = """
import json, sys
from pdrop import TOY_CONFIG, build_schedule, forward_pruned, init_model
from pdrop.cli import main
from pdrop.harness import FixtureSpec, make_marker_sequence

weights = init_model(TOY_CONFIG, 1)
fixture = FixtureSpec(image_tokens=1152, marked_placement="random")
seq, _ = make_marker_sequence(TOY_CONFIG, fixture, 1)
schedule = build_schedule(8, 4, 0.5, 1152)
trace = forward_pruned(weights, seq, schedule)
print(json.dumps({"schedule": [schedule.stage_layer_counts, schedule.stage_token_counts],
                  "kept": [(layer, kept.tolist()) for layer, kept in trace.kept_masks]}))
sys.exit(main(["run", "--config", sys.argv[1]]))
"""

REPEAT = """
import numpy as np
from pdrop import TOY_CONFIG, ModelConfig, build_schedule, forward_pruned, init_model
from pdrop.harness import FixtureSpec, make_marker_sequence

mid = ModelConfig(num_layers=16, hidden_size=256, num_heads=8, head_dim=32,
                  ffn_intermediate=688, vocab_size=256)
for cfg, v0 in ((TOY_CONFIG, 1152), (mid, 576)):
    weights = init_model(cfg, 1)
    seq, _ = make_marker_sequence(cfg, FixtureSpec(image_tokens=v0, marked_placement="random"), 1)
    schedule = build_schedule(cfg.num_layers, 4, 0.5, v0)
    traces = [forward_pruned(weights, seq, schedule) for _ in range(3)]
    print(all(np.array_equal(t.logits, traces[0].logits)
              and np.array_equal(t.hidden[-1], traces[0].hidden[-1]) for t in traces))
"""


def start_with_threads(threads, *args, script=CHILD):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    env.update({var: str(threads) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS")})
    return subprocess.Popen([sys.executable, "-c", script, *map(str, args)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def output(child):
    out, err = child.communicate(timeout=300)
    assert child.returncode == 0, err
    return out


def test_thread_count_changes_no_mask_schedule_or_marker_run(tmp_path):
    # toy V0=1152, S=4 lambda=0.5: on OpenBLAS 0.3.31 with 2 vCPUs the
    # logits of this forward differ between 1 and 2 threads
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"num_layers": 8, "hidden_size": 64, "num_heads": 4, "head_dim": 16,
                  "ffn_intermediate": 172, "vocab_size": 256},
        "seed": 7,
        "fixture": {"image_tokens": 1152, "marked_count": 4},
        "strategy": {"name": "pdrop", "stages": 4, "keep_ratio": 0.5},
    }))
    children = [start_with_threads(threads, config) for threads in (1, 2)]
    one, two = (output(child).split("\n", 1) for child in children)
    forward = json.loads(one[0])
    assert [len(kept) for _, kept in forward["kept"]] == [576, 288, 144]
    assert forward == json.loads(two[0])
    assert '"digest"' in one[1] and one[1] == two[1]


def test_forwards_repeat_at_two_blas_threads():
    # toy V0=1152 and mid V0=576, S=4 lambda=0.5, three forwards each with
    # OpenBLAS allowed two threads
    child = start_with_threads(2, script=REPEAT)
    assert output(child).split() == ["True", "True"]
