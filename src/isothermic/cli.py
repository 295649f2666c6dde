"""Command-line interface.

Subcommands are thin wrappers over the pipeline: generate / transform /
verify / export run one configuration; sweep iterates the spectral
parameter over a list, producing the deformation family as a file series.

Exit codes, the same for every command: 0 pass, 1 a configured check
failed (sweep: in any member; verify also when it ran no check), 2 invalid
configuration or an unreadable input, 3 numerical singularity, or an output
directory or artifact that cannot be written.
"""

import argparse
import sys

from .errors import ConfigInvalid, GeometryError, IoError
from .pipeline import PipelineConfig, read_config, run_pipeline, sweep

DEFAULT_CONFIG = {"generator": {"kind": "example"}}  # the schema fills in the rest


def build_parser():
    parser = argparse.ArgumentParser(
        prog="isothermic",
        description="spectral/Darboux transformation engine for isothermic "
        "surfaces and cmc surfaces of hyperbolic space",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("generate", "run a generator and export the surface"),
        ("transform", "apply the configured transform chain"),
        ("verify", "run the configured invariant checks"),
        ("export", "write mesh/JSON artifacts for the configured surface"),
        ("sweep", "iterate the spectral parameter over a list"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="pipeline configuration (JSON)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--grid-n", type=int, help="samples per grid side")
        p.add_argument("--lambda", dest="lam", type=float,
                       help="spectral parameter override")
        p.add_argument("--seed", type=int, help="seed for sampled certificates")
        if name == "sweep":
            p.add_argument("--lambdas", default="0,0.25,0.5,1",
                           help="comma-separated spectral parameters")
    return parser


def _config_from_args(args):
    """The config file (or the default config) with the flags merged in,
    validated once by PipelineConfig.from_dict."""
    raw = dict(read_config(args.config) if args.config else DEFAULT_CONFIG)
    if args.grid_n is not None:
        raw.pop("grid_nx", None)
        raw.pop("grid_ny", None)
        raw["grid_n"] = args.grid_n
    # a generator that is not a mapping is left for from_dict to reject
    if args.lam is not None and isinstance(raw.get("generator"), dict):
        raw["generator"] = dict(raw["generator"], **{"lambda": args.lam})
    if args.seed is not None:
        raw["seed"] = args.seed
    return PipelineConfig.from_dict(raw)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "sweep":
            lambdas = [v for v in args.lambdas.split(",") if v.strip()]
            if not lambdas:
                raise ConfigInvalid("sweep needs at least one parameter value")
            family, path = sweep(cfg, lambdas, args.out)
            print(f"wrote {len(family['members'])} members and {path}")
            failed = [m["lambda"] for m in family["members"]
                      if not all(c["pass"] for c in m["checks"])]
            if failed:
                print(f"FAIL  checks failed for lambda {failed}")
                return 1
            return 0
        if args.command == "generate" and not cfg.export:
            cfg.export = {"surface": "surface.json", "report": "report.json"}
        if args.command == "export" and not cfg.export:
            cfg.export = {"obj": "surface.obj"}
        if args.command == "verify" and not cfg.verify:
            cfg.verify = {"isothermic": True}
        report, artifacts, _ = run_pipeline(cfg, args.out)
        for check in report.checks:
            state = "pass" if check.passed else "FAIL"
            print(f"{state}  {check.name}: residual {check.residual:.3e} "
                  f"(tol {check.tolerance:.1e})")
        for kind, path in artifacts.items():
            print(f"wrote {kind}: {path}")
        # a failed check fails every command; verify fails also when none ran
        if report.checks or args.command == "verify":
            return int(not report.all_passed())
        return 0
    except ConfigInvalid as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except IoError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except GeometryError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
