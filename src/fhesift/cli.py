"""Command-line front end.

Three subcommands: ``run`` executes the pipeline on a PGM image and
writes the keypoint list plus a run report, ``diff`` compares two
keypoint files, ``report`` pretty-prints a saved report.  Exit codes:
0 success, 1 malformed input or configuration (and ``diff`` mismatch,
and a product too large to expand), 2 multiplicative depth exhausted,
3 program not expressible as a single deferred package.

All outputs are deterministic functions of the input image, the
configuration and the seed; nothing records wall-clock time or host
state, so identical runs produce byte-identical files.  The one
exception is opt-in and kept apart: ``run --timings PATH`` writes each
stage's wall seconds to PATH, and to no other file, with the compile's
as ``wall_s.compile`` when the run compiled its circuit.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .ckks_sim import SimParams
from .errors import ConfigError, DeferralUnsupported, DepthExhausted, FheSiftError, PgmError
from .pgm import read_pgm
from .sift_pipeline import (
    PipelineConfig,
    RunReport,
    compare_keypoints,
    keypoints_from_text,
    keypoints_to_text,
    run_pipeline,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_DEPTH = 2
EXIT_DEFERRAL = 3


def _parse_value(raw: str, typ):
    if typ is bool:
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    if typ is int:
        return int(raw)
    if typ is float:
        return float(raw)
    if typ is str:
        return raw
    raise ConfigError(f"unsupported option type {typ!r}")


_SIM_FIELDS = {f.name: f for f in fields(SimParams)}
_PIPE_FIELDS = {f.name: f for f in fields(PipelineConfig)}
# each option parses as the type of its field's default
_FIELD_TYPES = {name: type(f.default) for name, f in (_SIM_FIELDS | _PIPE_FIELDS).items()}


def parse_settings(pairs) -> tuple[SimParams, PipelineConfig]:
    """Split key=value overrides between simulator and pipeline options."""
    sim_kw: dict = {}
    pipe_kw: dict = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"expected key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        key = key.strip()
        if key in _FIELD_TYPES:
            try:
                value = _parse_value(raw.strip(), _FIELD_TYPES[key])
            except ValueError as e:
                raise ConfigError(f"bad value for {key}: {e}") from e
            (sim_kw if key in _SIM_FIELDS else pipe_kw)[key] = value
        else:
            known = ", ".join(sorted((*_SIM_FIELDS, *_PIPE_FIELDS)))
            raise ConfigError(f"unknown option {key!r}; known options: {known}")
    try:
        return SimParams(**sim_kw), PipelineConfig(**pipe_kw)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


def _flat_report(report: RunReport) -> list[tuple[str, str]]:
    kv: list[tuple[str, str]] = []

    def put(key, val):
        kv.append((key, str(val)))

    put("mode", report.mode)
    put("image.height", report.image_shape[0])
    put("image.width", report.image_shape[1])
    put("seed", report.seed)
    put("depth_budget", report.depth_budget)
    put("keypoints", report.keypoint_count)
    put("dependency_depth", report.dependency_depth)
    put("rounds", len(report.rounds))
    for r in report.rounds:
        p = f"round.{r.round}"
        put(f"{p}.real_comparisons", r.n_real_comparisons)
        put(f"{p}.real_sqrts", r.n_real_sqrts)
        put(f"{p}.wire_comparisons", r.n_wire_comparisons)
        put(f"{p}.wire_sqrts", r.n_wire_sqrts)
        put(f"{p}.request_bytes", r.request_bytes)
        put(f"{p}.response_bytes", r.response_bytes)
    for stage in sorted(report.stage_ops):
        for op in sorted(report.stage_ops[stage]):
            put(f"ops.{stage}.{op}", report.stage_ops[stage][op])
    for stage in sorted(report.stage_min_level):
        put(f"min_level.{stage}", report.stage_min_level[stage])
    for stage in sorted(report.cmp_lanes):
        put(f"cmp_lanes.{stage}", report.cmp_lanes[stage])
    put("decrypts.server", report.server_decrypt_calls)
    put("decrypts.client", report.client_decrypt_calls)
    if report.leakage is not None:
        for k in sorted(report.leakage):
            put(f"leakage.{k}", report.leakage[k])
    if report.package_bytes is not None:
        put("package_bytes", report.package_bytes)
        for part, size in (report.package_sections or {}).items():
            put(f"package_bytes.{part}", size)
    if report.oracle_diff is not None:
        d = report.oracle_diff
        put("oracle.equal", d["equal"])
        put("oracle.matched", d["matched"])
        put("oracle.only_run", len(d["only_a"]))
        put("oracle.only_oracle", len(d["only_b"]))
        put("oracle.max_descriptor_diff", repr(d["max_descriptor_diff"]))
    return kv


def render_kv(kv) -> str:
    return "".join(f"{k} = {v}\n" for k, v in kv)


def render_text(kv) -> str:
    """Aligned, section-spaced rendering of a flat report."""
    width = max((len(k) for k, _ in kv), default=0)
    out = []
    prev_head = None
    for k, v in kv:
        head = k.split(".", 1)[0] if "." in k else ""
        if prev_head is not None and head != prev_head:
            out.append("\n")
        prev_head = head
        out.append(f"{k.ljust(width)}  {v}\n")
    return "".join(out)


def _cmd_run(args) -> int:
    sim, cfg = parse_settings(args.set)
    img = read_pgm(args.image)
    result = run_pipeline(img, cfg, sim, mode=args.mode, seed=args.seed)
    if args.mode in ("interactive", "deferred"):
        reference = run_pipeline(img, cfg, sim, mode="plaintext", seed=args.seed)
        result.report.oracle_diff = compare_keypoints(
            result.keypoints, reference.keypoints)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "keypoints.txt").write_text(keypoints_to_text(result.keypoints))
    kv = _flat_report(result.report)
    (out / "report.kv").write_text(render_kv(kv))
    (out / "report.txt").write_text(render_text(kv))
    print(f"mode {result.report.mode}: {result.report.keypoint_count} keypoints, "
          f"{len(result.report.rounds)} round(s)")
    print(f"wrote {out / 'keypoints.txt'}")
    print(f"wrote {out / 'report.kv'}")
    print(f"wrote {out / 'report.txt'}")
    if args.timings:
        timings = Path(args.timings)
        timings.parent.mkdir(parents=True, exist_ok=True)
        timings.write_text(render_kv((f"wall_s.{stage}", f"{seconds:.6f}") for stage, seconds
                                     in sorted(result.report.stage_wall_s.items())))
        print(f"wrote {timings}")
    return EXIT_OK


def _cmd_diff(args) -> int:
    a = keypoints_from_text(Path(args.a).read_text())
    b = keypoints_from_text(Path(args.b).read_text())
    d = compare_keypoints(a, b, descriptor_tol=args.descriptor_tol)
    print(f"matched {d['matched']}  only-left {len(d['only_a'])}  "
          f"only-right {len(d['only_b'])}  "
          f"descriptor-mismatches {len(d['descriptor_mismatches'])}  "
          f"max-descriptor-diff {d['max_descriptor_diff']:.3e}")
    for key in d["only_a"]:
        print(f"  only left:  {key}")
    for key in d["only_b"]:
        print(f"  only right: {key}")
    for key in d["descriptor_mismatches"]:
        print(f"  descriptor: {key}")
    return EXIT_OK if d["equal"] else EXIT_BAD_INPUT


def _cmd_report(args) -> int:
    kv = []
    text = Path(args.report).read_text()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        k, _, v = line.partition("=")
        kv.append((k.strip(), v.strip()))
    sys.stdout.write(render_text(kv))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fhesift",
        description="Keypoint detection under simulated leveled encryption.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="detect keypoints in a PGM image")
    p_run.add_argument("image", help="input image (PGM, P2 or P5)")
    p_run.add_argument("--mode", choices=("plaintext", "interactive", "deferred"),
                       default="deferred")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a simulator or pipeline option")
    p_run.add_argument("--timings", metavar="PATH",
                       help="also write each stage's wall seconds, and the compile's when the run "
                            "compiles its circuit, to PATH, as key = value lines")
    p_run.set_defaults(func=_cmd_run)

    p_diff = sub.add_parser("diff", help="compare two keypoint files")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_diff.add_argument("--descriptor-tol", type=float, default=1e-9)
    p_diff.set_defaults(func=_cmd_diff)

    p_rep = sub.add_parser("report", help="pretty-print a report.kv file")
    p_rep.add_argument("report")
    p_rep.set_defaults(func=_cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DepthExhausted as e:
        stage = e.stage or "unknown stage"
        print(f"error: depth budget exhausted in {stage}: {e}", file=sys.stderr)
        return EXIT_DEPTH
    except DeferralUnsupported as e:
        print(f"error: cannot defer: {e}", file=sys.stderr)
        return EXIT_DEFERRAL
    except (PgmError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except FheSiftError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
