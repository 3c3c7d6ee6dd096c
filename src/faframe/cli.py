"""The ``faframe`` command line tool.

Subcommands: ``canonicalize`` (rewrite systems in frame coordinates),
``audit`` (numeric symmetry report for a model), ``bench`` (discrimination
benchmarks), and ``gradcheck`` (autodiff vs finite differences).

Exit codes: 0 on success, 2 when the run completed but at least one frame
was degenerate, 10 and up for usage or input errors. JSON reports are
written with sorted keys and a fixed layout, so identical inputs and seeds
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .audit import audit_model, format_report_table
from .errors import FaframeError
from .expressivity import default_benchmark_config, run_benchmark
from .faenet import GRADCHECK_CONFIG, FAENetConfig, FAENetModel, run_gradient_check
from .frames import FA_MODES, canonical_views, plan_views
from .geometry import E3, AtomicSystem, normalize_group
from .xyz import format_xyz, read_xyz_blocks

EXIT_OK = 0
EXIT_DEGENERATE = 2
EXIT_ERROR = 10

PRECISION = "float64"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage, which would collide with the
    # degenerate-frame warning code, so usage errors are moved to 10.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _dump_json(payload: dict, path: str | None):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_model_config(path: str | None, overrides: dict,
                       default: FAENetConfig = FAENetConfig()) -> FAENetConfig:
    """Build the model config with flag > file > ``default`` precedence."""
    data = default.to_dict()
    if path is not None:
        loaded = json.loads(Path(path).read_text())
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        data.update(loaded)
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    return FAENetConfig.from_dict(data)


def _read_systems_dir(directory: str):
    root = Path(directory)
    if not root.is_dir():
        raise ValueError(f"{directory} is not a directory")
    files = sorted(root.glob("*.xyz"))
    if not files:
        raise ValueError(f"no .xyz files in {directory}")
    systems = []
    for path in files:
        systems.extend(system for system, _ in read_xyz_blocks(path))
    return systems


def _cmd_canonicalize(args) -> int:
    group = normalize_group(args.group)
    systems = [system for system, _ in read_xyz_blocks(args.input)]
    rng = None if args.sample is None else np.random.default_rng(args.sample)
    plan = plan_views(systems, "full" if rng is None else "stochastic", group, rng)
    stacks = np.split(plan.rotation, np.searchsorted(plan.sample, np.arange(1, len(systems))))
    pieces = []
    saw_degenerate = False
    for index, (system, frame, rotations) in enumerate(zip(systems, plan.frames, stacks)):
        if frame.degenerate:
            saw_degenerate = True
            print(
                f"warning: system {index} has a degenerate frame; "
                f"falling back to the identity rotation at the centroid",
                file=sys.stderr,
            )
        positions, cells = canonical_views(system, frame.translation, rotations)
        for position, view_positions in enumerate(positions):
            view = AtomicSystem(view_positions, system.atomic_numbers,
                                None if cells is None else cells[position], system.pbc)
            extra = {"system_index": index, "frame_index": position, "group": group}
            if frame.degenerate:
                extra["degenerate"] = "T"
            pieces.append(format_xyz(view, extra=extra))
    text = "".join(pieces)
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
    return EXIT_DEGENERATE if saw_degenerate else EXIT_OK


def _cmd_audit(args) -> int:
    group = normalize_group(args.group)
    config = _load_model_config(args.config, {
        "cutoff": args.cutoff,
        "num_interactions": args.layers,
    })
    systems = _read_systems_dir(args.systems_dir)
    model = FAENetModel(config, np.random.default_rng(args.seed))
    report = audit_model(
        model,
        systems,
        fa_mode=args.fa_mode,
        group=group,
        num_transforms=args.transforms,
        rng=np.random.default_rng(args.seed + 1),
    )
    print(format_report_table({args.fa_mode: report}))
    payload = report.to_dict()
    payload.update({
        "seed": args.seed,
        "config_hash": config.config_hash(),
        "precision": PRECISION,
    })
    if args.output is not None:
        _dump_json(payload, args.output)
    if report.degenerate_count:
        print(
            f"warning: {report.degenerate_count} system(s) had degenerate frames "
            f"and were excluded",
            file=sys.stderr,
        )
        return EXIT_DEGENERATE
    return EXIT_OK


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} expects at least one value")
    return values


def _cmd_bench(args) -> int:
    config = _load_model_config(args.config, {"num_interactions": args.layers},
                                default_benchmark_config(args.family))
    if args.family == "kchains":
        if args.L is not None or args.angle is not None:
            raise ValueError("--L and --angle only apply to the rotsym family")
        parameters = [args.k if args.k is not None else 4]
    else:
        if args.k is not None:
            raise ValueError("--k only applies to the kchains family")
        parameters = _parse_int_list(args.L if args.L is not None else "2,3,5,7", "--L")
    results = []
    for parameter in parameters:
        result = run_benchmark(
            args.family,
            parameter,
            num_seeds=args.seeds,
            epochs=args.epochs,
            fa_mode=args.fa_mode,
            group=normalize_group(args.group),
            angle=args.angle,
            seed=args.seed,
            config=config,
        )
        results.append(result)
        print(
            f"{args.family} parameter={parameter}: accuracy "
            f"{result.mean_accuracy:.3f} +/- {result.std_accuracy:.3f}, "
            f"perfect seeds {result.perfect_seeds}/{len(result.accuracies)}"
        )
    payload = {
        "schema_version": 1,
        "family": args.family,
        "fa_mode": args.fa_mode,
        "seed": args.seed,
        "precision": PRECISION,
        "results": [result.to_dict() for result in results],
    }
    if args.output is not None:
        _dump_json(payload, args.output)
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    config = _load_model_config(args.config, {}, GRADCHECK_CONFIG)
    report = run_gradient_check(config, seed=args.seed)
    print(
        f"gradient check: {report['status']} "
        f"(max relative error {report['max_rel_err']:.3e} in {report['worst_op']}, "
        f"tolerance {report['tolerance']:.0e})"
    )
    for name in sorted(report["ops"]):
        print(f"  {name:<24} {report['ops'][name]:.3e}")
    if args.output is not None:
        _dump_json(report, args.output)
    return EXIT_OK if report["status"] == "PASS" else EXIT_ERROR


def build_parser() -> _Parser:
    parser = _Parser(prog="faframe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    canon = sub.add_parser("canonicalize", help="rewrite systems in frame coordinates")
    canon.add_argument("input", help="extended-XYZ file, possibly with several blocks")
    canon.add_argument("--group", default=E3, help="frame group: E3, SE3, or Z_AXIS_2D")
    canon.add_argument("--sample", type=int, metavar="SEED",
                       help="emit one view per system, chosen with this seed "
                            "(default: every frame element's view)")
    canon.add_argument("-o", "--output", help="output file (default: stdout)")
    canon.set_defaults(func=_cmd_canonicalize)

    audit = sub.add_parser("audit", help="numeric symmetry report for a fresh model")
    audit.add_argument("systems_dir", help="directory of .xyz files")
    audit.add_argument("--config", help="JSON file of model settings")
    audit.add_argument("--fa-mode", default="full",
                       choices=FA_MODES)
    audit.add_argument("--group", default=E3)
    audit.add_argument("--transforms", type=int, default=10,
                       help="random transforms per system and kind")
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--cutoff", type=float, help="override the config cutoff")
    audit.add_argument("--layers", type=int, help="override the interaction count")
    audit.add_argument("-o", "--output", help="write the JSON report here")
    audit.set_defaults(func=_cmd_audit)

    bench = sub.add_parser("bench", help="two-class discrimination benchmarks")
    bench.add_argument("family", choices=("kchains", "rotsym"))
    bench.add_argument("--k", type=int, help="backbone length for kchains (default 4)")
    bench.add_argument("--L", help="comma-separated ring sizes for rotsym (default 2,3,5,7)")
    bench.add_argument("--angle", type=float, help="ring twist in radians (default pi/L)")
    bench.add_argument("--layers", type=int,
                       help="override the interaction count (default: the config file's, else 1)")
    bench.add_argument("--seeds", type=int, default=10)
    bench.add_argument("--epochs", type=int, default=150)
    bench.add_argument("--fa-mode", default="stochastic",
                       choices=FA_MODES)
    bench.add_argument("--group", default=E3)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--config", help="JSON file of model settings")
    bench.add_argument("-o", "--output", help="write the JSON report here")
    bench.set_defaults(func=_cmd_bench)

    grad = sub.add_parser("gradcheck", help="compare autodiff against finite differences")
    grad.add_argument("--config", help="JSON file of model settings; fields it omits "
                                       "keep their gradcheck defaults")
    grad.add_argument("--seed", type=int, default=0)
    grad.add_argument("-o", "--output", help="write the JSON report here")
    grad.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        return args.func(args)
    except (FaframeError, ValueError, OSError) as exc:
        print(f"faframe: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
