"""One benchmark stage in a fresh process.

    python3 bench/stage.py <spec.json> <result.json>

Imports eegssl from the checkout's `src/`, optionally installs the tracer,
runs the spec's steps one after another (a step is a CLI command issued
through `eegssl.cli.run_cli` in this process, or the writing of a labeled
segment archive), and writes what it measured to the result file. The
working directory is the run's work directory, so every path in a step is
relative to it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _write_labeled(eegssl, step: dict) -> None:
    spec = eegssl.synth.SynthSpec(seed=step["seed"], channel_count=8,
                                  duration_s=4.0, sample_rate_hz=256.0)
    batch = eegssl.synth.synth_labeled_dataset(
        spec, classes=2, per_class=step["per_class"], band_hz=(8.0, 12.0),
        power_ratio=step["power_ratio"])
    eegssl.data.save_segments(batch, step["out"])


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import eegssl
    import eegssl.cli
    from tracer import Tracer, maxrss_mb

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install(eegssl)

    steps = []
    for step in spec["steps"]:
        rss0 = maxrss_mb()
        out = io.StringIO()
        t = time.perf_counter()
        try:
            if step["kind"] == "cli":
                with contextlib.redirect_stdout(out):
                    rc = eegssl.cli.run_cli(step["argv"])
            else:
                _write_labeled(eegssl, step)
                rc = 0
        except Exception:  # a raised step is a failed operation, not a crash
            traceback.print_exc()
            rc = -1
        seconds = time.perf_counter() - t
        steps.append({"rc": rc, "seconds": seconds, "rss0_mb": rss0,
                      "rss1_mb": maxrss_mb(), "stdout": out.getvalue()})
        if rc != 0:
            break

    result = {"steps": steps}
    if tracer is not None:
        result["trace"] = tracer.report()
        result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
