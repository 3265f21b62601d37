"""The benchmark's traced stage on a tiny pipeline.

`bench/stage.py` with `"trace": true` installs `bench/tracer.py`, which wraps
every public eegssl function and every tape op's backward, walks the graph
on each `backward()` and reads `.data` and `.grad` of every node. A change
to the tape or to the training loop that breaks those wrappers makes a
traced benchmark run fail; this runs the same stage on a run small enough
for the test suite. It runs in a subprocess because `Tracer.install` patches
module globals.
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

from eegssl import autodiff as ad
from eegssl.encoder import MICRO_BATCH_TOKENS, EncoderConfig

ROOT = Path(__file__).resolve().parent.parent
ENCODER = {"d": 8, "layers": 1, "heads": 2, "mlp_ratio": 2.0, "p_t": 64,
           "in_channels": 8, "mapped_channels": 16, "n_t": 16, "stem_kernel": 7}
BATCH, SEGMENTS = 8, 16


def cli(*argv):
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def test_traced_stage_runs_the_pipeline(tmp_path):
    per_chunk = MICRO_BATCH_TOKENS // EncoderConfig(**ENCODER).n_tokens
    chunks = -(-BATCH // per_chunk)
    assert chunks >= 2  # the step must run more than one micro-batch
    run = {"synth": {"channel_count": 8, "duration_s": 4.0 * SEGMENTS,
                     "sample_rate_hz": 256.0,
                     "oscillations": [[10.0, 4.0, [0, 1, 2, 3]]]},
           "encoder": ENCODER,
           "schedule": {"lr_max": 1e-3, "warmup_epochs": 0},
           "train": {"batch_size": BATCH, "epochs": 1, "log_path": "train.jsonl"},
           "probe": {"epochs": 50, "lr": 0.5, "train_fraction": 0.5}}
    (tmp_path / "run.json").write_text(json.dumps(run))
    steps = [cli("synth", "--config", "run.json", "--seed", 1, "--out", "corpus.lcmr"),
             cli("preprocess", "corpus.lcmr", "--config", "run.json",
                 "--out", "corpus.lcms"),
             {"kind": "labeled", "seed": 3, "per_class": 8, "power_ratio": 16.0,
              "out": "labeled.lcms"},
             cli("pretrain", "corpus.lcms", "--config", "run.json", "--seed", 2,
                 "--out", "model.lcmc"),
             cli("probe", "model.lcmc", "labeled.lcms", "--config", "run.json",
                 "--seed", 2, "--out", "probe.json")]
    (tmp_path / "spec.json").write_text(json.dumps({"steps": steps, "trace": True}))

    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "stage.py"), "spec.json", "result.json"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert [s["rc"] for s in result["steps"]] == [0] * len(steps), proc.stderr

    trace = result["trace"]
    train_steps = SEGMENTS // BATCH
    # one backward per micro-batch, each walked by the tracer
    assert len(trace["tape"]) == train_steps * chunks
    assert all(nodes > 0 and held > 0 for nodes, held, _ in trace["tape"])
    assert len(trace["steps"]) == train_steps
    spans = set(trace["inclusive"])
    # every tape op: a public autodiff function that records its node
    # through `_make`
    ops = [name for name, fn in vars(ad).items()
           if inspect.isfunction(fn) and fn.__module__ == ad.__name__
           and not name.startswith("_") and "_make" in fn.__code__.co_names]
    assert len(ops) == 9, ops
    for op in ops:
        assert {f"autodiff.{op}.fwd", f"autodiff.{op}.bwd"} <= spans, op
    assert "evaluate.extract_features" in spans
    # each writer's traced byte count is the size of the files it wrote
    written = {"data.write_recording": ["corpus.lcmr"],
               "data.save_segments": ["corpus.lcms", "labeled.lcms"],
               "data.save_checkpoint": ["model.lcmc"]}
    for label, names in written.items():
        size = sum((tmp_path / name).stat().st_size for name in names)
        assert trace["io_bytes"][label] == size, label
