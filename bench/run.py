"""eegssl benchmark: one workload, one run.

    python3 bench/run.py --workload pretrain-small --seed 0 --seconds 30 --trace 0

Run from any directory; the package is imported from the checkout's `src/`.
Set-up runs `SETUP_REPS` times, each in a fresh process. The body then runs
as a closed loop with one caller: each CLI command of an iteration runs in
its own fresh process through `eegssl.cli.run_cli`, and the next command is
issued only after the previous one has returned. Iterations continue until
`--seconds` would be exceeded (at least `MIN_ITERATIONS`).

`--trace 0` reports the end-to-end metrics; `--trace 1` reports per-layer
metrics from traced iterations (see tracer.py), interleaved with untraced
ones for the tracing overhead and the checkpoint comparison.

Human-readable lines go to stdout; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Full results, and the spans
of a traced run, are written under `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics, merge, step_percentiles
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
MIN_ITERATIONS = 2
RUN_LIMIT_S = 170.0
PROBE_MIN_ACCURACY = 0.80

# Gated end-to-end metrics, name -> unit; order is the print order.
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "train_seg_per_s": "1/s",
    "encode_seg_per_s": "1/s", "peak_rss_mb": "MB", "train_mb_per_seg": "MB",
    "probe_balanced_accuracy": "1",
}
# Printed and kept in the result file, but not gated. final_loss is exact for
# a seed but moves between seeds by more than any allowed bound; on the
# pretrain workloads preprocess_x_realtime times a set-up preprocess of under
# half a second, whose run-to-run spread comes close to the largest bound.
REPORTED = {"preprocess_x_realtime": "x", "final_loss": "loss"}


class StageError(Exception):
    pass


class Run:
    def __init__(self, workload: Workload, seed: int, trace: bool, work: Path):
        self.w = workload
        self.seed = seed
        self.trace = trace
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.samples = {name: [] for name in {**END_TO_END, **REPORTED}}
        self.checks = []            # (name, ok, detail)
        self.shas = {}              # step label -> checkpoint SHA-256 values
        self.attempted = 0
        self.failed = 0
        self.stage_count = 0
        self.spans = []
        self.pretrain_rss0 = []
        self.counters = {}          # kind -> exact counters per traced process group

    # --- processes -------------------------------------------------------------

    def stage(self, steps: list, trace: bool) -> tuple:
        """Run `steps` in one fresh process; returns (wall seconds, result)."""
        self.stage_count += 1
        spec = self.work / f"stage{self.stage_count}.json"
        result = self.work / f"stage{self.stage_count}.result.json"
        spec.write_text(json.dumps({"steps": steps, "trace": trace}))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise StageError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        t0 = time.perf_counter()
        self.attempted += len(steps)
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "stage.py"), spec.name, result.name],
                cwd=self.work, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            self.failed += 1
            raise StageError(f"stage timed out after {exc.timeout:.0f} s") from exc
        wall = time.perf_counter() - t0
        res = None
        bad = f"stage process (exit {proc.returncode})"
        if proc.returncode == 0 and result.exists():
            res = json.loads(result.read_text())
            bad = next((f"step {step.get('argv', step['kind'])} (exit {out['rc']})"
                        for step, out in zip(steps, res["steps"])
                        if out["rc"] != 0), None)
        if bad:
            sys.stderr.write(proc.stderr)
            self.failed += 1
            raise StageError(f"{bad} failed")
        if trace:
            self.spans.extend([self.stage_count] + s for s in res.pop("spans"))
        for step, out in zip(steps, res["steps"]):
            self._collect(step, out)
        return wall, res

    # --- measurements and checks -------------------------------------------------

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.checks.append((name, bool(ok), detail))

    def _collect(self, step: dict, out: dict) -> None:
        role, w = step.get("role"), self.w
        if role == "preprocess":
            self.samples["preprocess_x_realtime"].append(w.recording_s / out["seconds"])
            if "segment_count" in w.checks:
                found = re.search(r"(\d+) segments", out["stdout"])
                n = int(found.group(1)) if found else -1
                self.check("segment_count", n == w.expected_segments,
                           f"{n} segments, expected {w.expected_segments}")
        elif role == "pretrain":
            self.samples["train_seg_per_s"].append(w.train_segments / out["seconds"])
            self.samples["train_mb_per_seg"].append(
                (out["rss1_mb"] - out["rss0_mb"]) / w.batch_size)
            self.pretrain_rss0.append(out["rss0_mb"])
            self._check_losses()
            ckpt = step["argv"][step["argv"].index("--out") + 1]
            sha = hashlib.sha256((self.work / ckpt).read_bytes()).hexdigest()
            self.shas.setdefault(ckpt, []).append(sha)
        elif role == "probe":
            self.samples["encode_seg_per_s"].append(w.labeled / out["seconds"])
            report = json.loads((self.work / "probe.json").read_text())
            accuracy = report["balanced_accuracy"]
            self.samples["probe_balanced_accuracy"].append(accuracy)
            if "probe_accuracy" in w.checks:
                self.check("probe_accuracy", accuracy >= PROBE_MIN_ACCURACY,
                           f"balanced accuracy {accuracy:.3f} >= {PROBE_MIN_ACCURACY}")

    def _check_losses(self) -> None:
        records = [json.loads(line) for line in
                   (self.work / "train.jsonl").read_text().splitlines()]
        last_epoch = records[-1]["epoch"]
        first = statistics.fmean(r["L_total"] for r in records if r["epoch"] == 0)
        final = statistics.fmean(r["L_total"] for r in records
                                 if r["epoch"] == last_epoch)
        self.samples["final_loss"].append(final)
        finite = all(math.isfinite(r["L_total"]) for r in records)
        if "loss_halves" in self.w.checks:
            self.check("loss_halves", finite and final <= 0.5 * first,
                       f"final-epoch L_total {final:.4f} <= 0.5 x first-epoch "
                       f"{first:.4f}")
        if "loss_descends" in self.w.checks:
            self.check("loss_descends", finite and final < first,
                       f"finite; final-epoch L_total {final:.4f} < first-epoch "
                       f"{first:.4f}")

    def check_repeats(self, registry: dict, code: str) -> None:
        """Checkpoints, and a traced run's exact counters, must be identical
        within this run and to every earlier run of the same code and seed."""
        groups = {("determinism", f"checkpoint {k}"): v for k, v in self.shas.items()}
        for kind, counts in self.counters.items():
            groups[("exact_counters", f"counters of traced {kind}s")] = [
                hashlib.sha256(json.dumps(c, sort_keys=True).encode()).hexdigest()
                for c in counts]
        for (check, label), values in groups.items():
            known = registry.setdefault(f"{code}/{self.w.name}/{self.seed}/{label}",
                                        values[0])
            same = len(set(values)) == 1
            self.check(check, same and known == values[0],
                       f"{label}: {len(values)} in this run "
                       + ("agree" if same else "differ")
                       + ("" if known == values[0] else ", earlier run differs"))

    # --- the run -------------------------------------------------------------------

    def execute(self, seconds: float) -> dict:
        setup_s, setup_traces = [], []
        for _ in range(SETUP_REPS):
            wall, res = self.stage(self.w.setup, self.trace)
            setup_s.append(wall)
            if self.trace:
                setup_traces.append(merge([res["trace"]]))
        self.samples["setup_s"] = setup_s

        body_traces, traced_wall, plain_wall = [], [], []
        min_iterations = 3 if self.trace else MIN_ITERATIONS
        start = time.perf_counter()
        i = 0
        while True:
            traced = self.trace and i % 3 != 0
            t0 = time.perf_counter()
            results = [self.stage([step], traced)[1] for step in self.w.body]
            wall = sum(r["steps"][0]["seconds"] for r in results)
            (traced_wall if traced else plain_wall).append(wall)
            if not traced:
                self.samples["wall_s"].append(wall)
                self.samples["peak_rss_mb"].append(
                    max(r["steps"][0]["rss1_mb"] for r in results))
            else:
                body_traces.append(merge([r["trace"] for r in results]))
            i += 1
            now = time.perf_counter()
            if i >= min_iterations and (now - start) + (now - t0) > seconds:
                break  # the next iteration would end after `seconds`
        if not self.trace:
            return {}
        # One round = one traced set-up plus one traced iteration; a layer's
        # figure is its median over the rounds of this run.
        rounds = max(len(setup_traces), len(body_traces))
        per_round = [layer_metrics(merge([setup_traces[k % len(setup_traces)],
                                          body_traces[k % len(body_traces)]]))
                     for k in range(rounds)]
        layers = {name: statistics.median(r[name] for r in per_round)
                  for name in per_round[0]}
        layers.update(step_percentiles(
            [s for t in setup_traces + body_traces for s in t["steps"]]))
        layers["trace.overhead_s"] = (statistics.median(traced_wall)
                                      - statistics.median(plain_wall))
        layers["trainer.final_loss"] = statistics.median(self.samples["final_loss"])
        self.counters = {"set-up": [exact_counters(t) for t in setup_traces],
                         "iteration": [exact_counters(t) for t in body_traces]}
        return layers


def exact_counters(raw: dict) -> dict:
    return {"calls": raw["calls"], "out_bytes": raw["out_bytes"],
            "tape": raw["tape"], "io_bytes": raw["io_bytes"]}


def unit_of(name: str) -> str:
    if name == "trace.overhead_s" or name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("calls", "tape_nodes")):
        return "count"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    return "loss"


def code_hash() -> str:
    """Hash of the package sources and this benchmark: the "same code" of the
    determinism check."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas_threads():
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE")
                                  * os.sysconf("SC_PHYS_PAGES") / 2**20),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def summarize(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eegssl" / "__init__.py").is_file():
        print(f"error: no eegssl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir()
    for name, config in workload.configs.items():
        (work / name).write_text(json.dumps(config))
    run = Run(workload, args.seed, bool(args.trace), work)
    try:
        layers = run.execute(args.seconds)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": run.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    registry_path = OUT / "registry.json"
    registry = (json.loads(registry_path.read_text())
                if registry_path.exists() else {})
    run.check_repeats(registry, code_hash())
    registry_path.write_text(json.dumps(registry, indent=1, sort_keys=True))

    env = environment()
    summary = {name: summarize(v) for name, v in run.samples.items() if v}
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"set-ups {len(run.samples['setup_s'])}  closed loop, 1 caller")
    print(f"env: nproc {env['nproc']}, memory {env['mem_total_mb']} MB, python "
          f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, BLAS "
          f"{env['blas']} with {env['blas_threads']} threads (library default)")
    print(f"{'metric':<26}{'unit':<6}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}")
    for name, unit in {**END_TO_END, **REPORTED}.items():
        if name in summary:
            s = summary[name]
            print(f"{name:<26}{unit:<6}{s['median']:>12.5g}{s['q1']:>12.5g}"
                  f"{s['q3']:>12.5g}{s['n']:>4}")
    computed = {}
    if workload.name == "pretrain-default" and "train_mb_per_seg" in summary:
        start = statistics.median(run.pretrain_rss0)
        per_seg = summary["train_mb_per_seg"]["median"]
        for b in (16, 64):
            computed[f"b{b}_peak_rss_mb"] = start + b * per_seg
            print(f"computed, not measured or gated: default shape at b={b} "
                  f"peaks near {start:.0f} + {b} x {per_seg:.1f} = "
                  f"{computed[f'b{b}_peak_rss_mb']:.0f} MB")
    for name in dict.fromkeys(c[0] for c in run.checks):
        mine = [c for c in run.checks if c[0] == name]
        shown = next((c for c in mine if not c[1]), mine[-1])
        passed = sum(c[1] for c in mine)
        print(f"check {name}: {passed}/{len(mine)} pass "
              f"({'last' if shown[1] else 'FAIL'}: {shown[2]})")

    if args.trace:
        for name in sorted(layers):
            print(f"layer {name:<44}{unit_of(name):<7}{layers[name]:.6g}")
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
        with open(OUT / f"{tag}.spans.jsonl", "w") as f:
            for span in run.spans:
                f.write(json.dumps(span) + "\n")
    else:
        metrics = {k: {"value": summary[k]["median"], "unit": u}
                   for k, u in END_TO_END.items()}
    (OUT / f"{tag}.json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "environment": env, "summary": summary, "samples": run.samples,
        "computed": computed, "checks": run.checks, "layers": layers},
        indent=1))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
