"""fhesift benchmark: per-image time, memory and wire cost of run_pipeline.

Usage, from the repository root:

    python3 benchmarks/run_bench.py --workload deferred-natural64 --seed 1 \
        --seconds 15 --trace 0

One process runs one workload in a closed loop on a single thread: an
image starts when the previous one and its checks have finished, and
images keep starting until ``--seconds`` have passed and at least two
have run, so the last one may run over.  Every image is checked against
the plaintext oracle; the last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are CPU seconds of the process, which leave out the time the
hypervisor gives the core to other guests, corrected for the core's
speed at that moment.  The shared host switches between a slow and a
fast state for minutes at a time, and an image's CPU time follows it.  A
fixed interpreter loop, the probe, is timed every ``PROBE_INTERVAL_S`` of
CPU time while an image runs; ``SpeedProbe.normalise`` rescales the
share ``CORE_SHARE`` of the image's time by ``PROBE_NOMINAL_S`` over the
probe's median and leaves the rest, the part that waits on memory, as it
is.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced images, reports the per-layer metrics from the
traced ones (spans recorded by ``tracing.py``), reports the tracing
overhead as the difference of the two medians, and writes the spans to
``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# single-threaded numerics; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 5
# A run measures at least two images, so a traced run has an untraced and
# a traced one and a natural64 run (about 20 s an image) has a pair.
MIN_IMAGES = 2
# SIGPROF period while an image runs, in CPU seconds; the probes take
# about 0.5% of the image.
PROBE_INTERVAL_S = 0.02
# Median probe time on the reference box (2-core Xeon VM, Python 3.11) in
# its usual, slow state; normalised times read as CPU seconds in that state.
PROBE_NOMINAL_S = 1.1e-4
# Share of an image's CPU time that follows the probe.  In the host's fast
# state the probe took about 0.6 of its usual time; natural64 images took
# 0.69-0.77 of theirs (a share of 0.6-0.8), small16 images 0.60-0.69
# (0.8-0.95).
CORE_SHARE = 0.75
# Small ints only: the loop allocates nothing, so it times the
# interpreter and the core, not the state of the program's heap.
PROBE_DATA = tuple(range(200)) * 15
STAGES = ("scale-space", "detect", "localize", "orient", "descriptor", "protocol")
LANE_OPS = ("encrypt", "add", "neg", "mul", "mul_plain")


class SpeedProbe:
    """Times the probe loop: on SIGPROF while entered, i.e. every
    PROBE_INTERVAL_S of the process's CPU time, or in a ``burst``."""

    def __init__(self):
        self.samples: list[float] = []

    def _probe(self, signum=None, frame=None):
        t0 = time.perf_counter()
        x = 0
        for v in PROBE_DATA:
            x ^= v
        self.samples.append(time.perf_counter() - t0)

    def burst(self, n: int = 20):
        for _ in range(n):
            self._probe()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def normalise(self, cpu_s: float) -> float:
        """``cpu_s`` on a host where the probe takes PROBE_NOMINAL_S."""
        speed = statistics.median(self.samples) / PROBE_NOMINAL_S
        return cpu_s / (CORE_SHARE * speed + 1.0 - CORE_SHARE)


@dataclass
class ImageRecord:
    index: int
    traced: bool
    seconds: float  # wall
    cpu_s: float = 0.0  # probe time taken out
    image_s: float = 0.0  # cpu_s at nominal host speed; untraced images only
    probe_s: float = 0.0  # median probe time during the image
    problems: list = field(default_factory=list)
    structure: dict = field(default_factory=dict)
    oracle_s: float = 0.0
    exclusions: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def import_fhesift():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "fhesift" / "__init__.py").is_file():
        raise SystemExit(f"run_bench: no fhesift sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fhesift

    if Path(fhesift.__file__).resolve().parent != SRC / "fhesift":
        raise SystemExit(f"run_bench: fhesift imported from {fhesift.__file__}, not {SRC}")
    return fhesift


def structure(report) -> dict:
    """Shape-only accounting of one run, read from its report."""
    rounds = report.rounds
    lanes = {op: 0 for op in LANE_OPS}
    for ops in report.stage_ops.values():
        for op, n in ops.items():
            lanes[op] = lanes.get(op, 0) + n
    out = {
        "wire_bytes": sum(r.request_bytes + r.response_bytes for r in rounds),
        "rounds": len(rounds),
        "protocol.real_lanes": sum(r.n_real_comparisons + r.n_real_sqrts for r in rounds),
        "protocol.wire_lanes": sum(r.n_wire_comparisons + r.n_wire_sqrts for r in rounds),
        "protocol.request_bytes": sum(r.request_bytes for r in rounds),
        "protocol.response_bytes": sum(r.response_bytes for r in rounds),
        "ckks_sim.min_level": min(report.stage_min_level.values()),
        "deferred_graph.dependency_depth": report.dependency_depth,
        "deferred_graph.monomials": (report.leakage or {}).get("monomials"),
        "stage_ops": {st: dict(sorted(ops.items())) for st, ops in sorted(report.stage_ops.items())},
    }
    out.update({f"ckks_sim.lanes.{op}": lanes[op] for op in LANE_OPS})
    return out


def oblivious_signature(st: dict) -> tuple:
    """What must not differ between images of one size and config."""
    return (st["wire_bytes"], st["rounds"],
            tuple(st[f"ckks_sim.lanes.{op}"] for op in LANE_OPS),
            tuple((k, tuple(v.items())) for k, v in st["stage_ops"].items()))


def check_image(fhesift, result, reference, mode: str) -> list[str]:
    """The four per-image correctness checks; returns what failed."""
    problems = []
    diff = fhesift.compare_keypoints(reference, result.keypoints)
    if not diff["equal"]:
        problems.append(f"keypoints differ from the oracle: only_oracle={diff['only_a']} "
                        f"only_encrypted={diff['only_b']} "
                        f"descriptor_mismatches={diff['descriptor_mismatches']}")
    report = result.report
    if report.server_decrypt_calls != 0:
        problems.append(f"server decrypted {report.server_decrypt_calls} times")
    if mode == "deferred" and len(report.rounds) != 1:
        problems.append(f"deferred run took {len(report.rounds)} rounds")
    if mode == "interactive" and len(report.rounds) != report.dependency_depth:
        problems.append(f"{len(report.rounds)} interactive rounds against dependency "
                        f"depth {report.dependency_depth}")
    return problems


def cpu_with_children() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure_setup(make_inputs, name: str, seed: int) -> tuple[float, list]:
    """Import in a fresh interpreter plus input generation, repeated;
    returns the median normalised CPU seconds and the inputs.  The import
    runs in a child the SIGPROF probe cannot reach, so each repeat is
    bracketed by probe bursts instead."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import fhesift"
    times = []
    for _ in range(SETUP_REPEATS):
        probe = SpeedProbe()
        probe.burst()
        c0 = cpu_with_children()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        inputs = make_inputs(name, seed)
        cpu_s = cpu_with_children() - c0
        probe.burst()
        times.append(probe.normalise(cpu_s))
    return statistics.median(times), inputs


def run_image(fhesift, oracle, workload, img, pipeline_seed: int, index: int,
              tracer=None) -> ImageRecord:
    gc.collect()  # every image starts from a collected heap, as in a fresh process
    record = ImageRecord(index, tracer is not None, 0.0)
    probe = SpeedProbe()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            with probe:
                result = fhesift.run_pipeline(img, workload.cfg, mode=workload.mode,
                                              seed=pipeline_seed)
        else:
            tracer.install()
            try:
                with tracer.root(index):
                    result = fhesift.run_pipeline(img, workload.cfg, mode=workload.mode,
                                                  seed=pipeline_seed)
            finally:
                tracer.uninstall()
    except Exception:
        result = None
        record.problems.append("run_pipeline raised:\n" + traceback.format_exc())
    record.seconds = time.perf_counter() - t0
    record.cpu_s = time.process_time() - c0 - sum(probe.samples)
    if probe.samples:
        record.image_s = probe.normalise(record.cpu_s)
        record.probe_s = statistics.median(probe.samples)
    if result is None:
        return record

    t0 = time.perf_counter()
    reference, margins = oracle.run_with_margins(img, workload.cfg)
    record.oracle_s = time.perf_counter() - t0
    record.exclusions = len(oracle.ambiguous_keypoints(margins, 0.0))
    record.problems.extend(check_image(fhesift, result, reference, workload.mode))
    record.structure = structure(result.report)
    return record


def layer_metrics(tracer, record: ImageRecord) -> tuple[dict, set]:
    """Per-layer values of one traced image, and the names whose layer
    did not run on it."""
    spans = tracer.summary(record.index)

    def secs(*names):
        return sum(spans.get(n, (0.0, 0))[0] for n in names)

    def calls(*names):
        return sum(spans.get(n, (0.0, 0))[1] for n in names)

    from tracing import CKKS_METHODS

    ckks = ["ckks_sim." + m for m in CKKS_METHODS]
    graph_kernels = ("kernels.bin_mask", "kernels.weighted_histogram", "kernels.vec_argmax_onehot")
    builder = tracer.builders[-1]
    st = record.structure
    m = {
        "ckks_sim.calls": calls(*ckks),
        "ckks_sim.self_s": secs(*ckks),
        "ckks_sim.min_level": st["ckks_sim.min_level"],
        "deferred_graph.nodes": len(builder.nodes),
        "deferred_graph.comparisons": len(builder.comparisons),
        "deferred_graph.sqrts": len(builder.sqrts),
        "deferred_graph.monomials": st["deferred_graph.monomials"] or 0,
        "deferred_graph.dependency_depth": st["deferred_graph.dependency_depth"],
        "deferred_graph.build_s": secs("deferred_graph.build"),
        "deferred_graph.normal_form_s": secs("deferred_graph.normal_form"),
        "deferred_graph.simplify_s": secs("deferred_graph.simplify"),
        "deferred_graph.lower_s": secs("deferred_graph.lower"),
        "deferred_graph.eval_s": secs("deferred_graph.eval"),
        "kernels.convolve2d_s": secs("kernels.convolve2d"),
        "kernels.convolve2d_calls": calls("kernels.convolve2d"),
        "kernels.graph_s": secs(*graph_kernels),
        "kernels.bin_mask_calls": calls("kernels.bin_mask"),
        "protocol.serialize_s": secs("protocol.serialize"),
        "protocol.parse_s": secs("protocol.parse"),
        "protocol.parse_calls": calls("protocol.parse"),
        "protocol.client_s": secs("protocol.client"),
        "protocol.interactive_s": secs("protocol.run_interactive"),
        "protocol.deferred_s": secs("protocol.run_deferred"),
        "protocol.real_lanes": st["protocol.real_lanes"],
        "protocol.wire_lanes": st["protocol.wire_lanes"],
        "protocol.request_bytes": st["protocol.request_bytes"],
        "protocol.response_bytes": st["protocol.response_bytes"],
        "protocol.useful_ratio": st["protocol.real_lanes"] / st["protocol.wire_lanes"],
        "sift_pipeline.self_s": secs("sift_pipeline.run_pipeline"),
        "oracle.reference_s": record.oracle_s,
    }
    m.update({k: st[k] for k in st if k.startswith("ckks_sim.lanes.")})
    m.update({f"sift_pipeline.stage_ops.{s}": sum(st["stage_ops"].get(s, {}).values())
              for s in STAGES})
    not_run = {k for k, n in (
        ("protocol.serialize_s", calls("protocol.serialize")),
        ("protocol.parse_s", calls("protocol.parse")),
        ("protocol.parse_calls", calls("protocol.parse")),
        ("protocol.interactive_s", calls("protocol.run_interactive")),
        ("protocol.deferred_s", calls("protocol.run_deferred")),
        ("deferred_graph.lower_s", calls("deferred_graph.lower")),
        ("deferred_graph.monomials", st["deferred_graph.monomials"] is not None),
    ) if not n}
    not_run.update(f"sift_pipeline.stage_ops.{s}" for s in STAGES if s not in st["stage_ops"])
    return m, not_run


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path = OUT) -> dict:
    """One benchmark run; returns the result object and prints the notes
    that explain it."""
    fhesift = import_fhesift()
    from fhesift import oracle
    from workloads import WORKLOADS, make_inputs

    if name not in WORKLOADS:
        raise SystemExit(f"run_bench: unknown workload {name!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[name]
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        inputs = make_inputs(name, seed)
    else:
        setup_s, inputs = measure_setup(make_inputs, name, seed)

    records: list[ImageRecord] = []
    layers: list[dict] = []
    not_run: set = set()
    peak_rss_mb = 0.0
    t_begin = time.perf_counter()
    while len(records) < MIN_IMAGES or time.perf_counter() - t_begin < seconds:
        i = len(records)
        traced = trace and i % 2 == 1
        rec = run_image(fhesift, oracle, workload, inputs[i % len(inputs)],
                        pipeline_seed=seed * 1000 + i, index=i,
                        tracer=tracer if traced else None)
        records.append(rec)
        if i == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced and rec.structure:
            ok, note = tracer.accounting(i)
            print("trace accounting:", note)
            if not ok:
                rec.problems.append("trace accounting failed: " + note)
            values, skipped = layer_metrics(tracer, rec)
            layers.append(values)
            not_run |= skipped
        if tracer is not None:
            tracer.builders.clear()

    # data-obliviousness: every image of the workload has one size and config
    shaped = [r for r in records if r.structure]
    if shaped:
        first = oblivious_signature(shaped[0].structure)
        for r in shaped[1:]:
            if oblivious_signature(r.structure) != first:
                r.problems.append(f"image {r.index}: wire bytes, rounds or op counts "
                                  f"differ from image {shaped[0].index}")

    attempted = len(records)
    failed = sum(r.failed for r in records)
    for r in records:
        for p in r.problems:
            print(f"image {r.index} failed: {p}", file=sys.stderr)
    untraced = [r for r in records if not r.traced]
    print(f"{name} seed {seed}: {attempted} images attempted, {failed} failed; "
          f"image_s is the median of {len(untraced)} untraced images")
    for label, values in (("wall s", [r.seconds for r in records]),
                          ("cpu s", [r.cpu_s for r in records]),
                          ("probe us", [r.probe_s * 1e6 for r in records]),
                          ("image_s", [r.image_s for r in records])):
        print(f"{label}:", " ".join(f"{v:.3f}{'t' if r.traced else ''}"
                                    for v, r in zip(values, records)))
    print(f"boundary exclusions (oracle.ambiguous_keypoints at eps 0.0): "
          f"{sum(r.exclusions for r in records)} over {attempted} images")

    if trace:
        traced_s = [r.cpu_s for r in records if r.traced]
        metrics = {k: statistics.median(v[k] for v in layers) for k in layers[0]} if layers else {}
        metrics["trace.overhead_s"] = (statistics.median(traced_s)
                                       - statistics.median(r.cpu_s for r in untraced))
        if layers:
            st = shaped[0].structure
            print(f"protocol.useful_ratio = real/wire lanes = "
                  f"{st['protocol.real_lanes']}/{st['protocol.wire_lanes']}")
        print(f"trace.overhead_s: median CPU seconds of {len(traced_s)} traced images "
              f"minus that of {len(untraced)} untraced")
        print(f"not run on {name} (reported as 0): {', '.join(sorted(not_run)) or 'none'}")
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"trace-{name}-seed{seed}.npz"
        tracer.write(path)
        print(f"spans written to {path}")
        units = metric_units("per_layer")
    else:
        st = shaped[0].structure if shaped else {"wire_bytes": 0, "rounds": 0}
        metrics = {
            "image_s": statistics.median(r.image_s for r in untraced),
            "peak_rss_mb": peak_rss_mb,
            "wire_bytes": st["wire_bytes"],
            "rounds": st["rounds"],
            "passed_frac": (attempted - failed) / attempted,
            "setup_s": setup_s,
        }
        units = metric_units("end_to_end")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def metric_units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", as
    BENCHMARK.json lists them."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SystemExit as e:
        print(e, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
