"""Command-line front end: curve sweeps, CSV output, argparse.

Subcommands
-----------
curve     sweep distortion (or perception) and emit one rate column per
          selected method as CSV
oracle    exact minimum rate at a single (D, P) point, with its decoder
simulate  random-codebook binning runs, one CSV row per rate margin
verify    run the verification suite of ``semrdp.verification``; exit
          status 0 iff every criterion passes

The CSV schema for curves is fixed: ``D,P`` followed by a subset of
``R_closed,R_min2,R_oracle,R_sim`` in that order, floats printed with six
decimals, rows in ascending axis order, infeasible points marked ``inf``
so files stay rectangular. All randomness flows from ``--seed``; two runs
with equal flags produce byte-identical artifacts.
"""

import argparse
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .coding_simulator import TrialConfig, derive_seed, random_binning_trial, run_decoder_trials
from .errors import DomainError, SemRdpError
from .rdpf_closed_form import closed_form_rate
from .rdpf_solver import DecoderLaw, oracle_min_rate, solve_min2
from .semantic_model import SemanticModel, build_model
from .verification import (VerificationConfig, _check_margins, _csv, _margin_ladder,
                           _rate_or_inf, run_verification)

_METHOD_COLUMNS = {  # in insertion order: the curve schema's column order
    "closed_form": "R_closed",
    "min2": "R_min2",
    "oracle": "R_oracle",
    "simulate": "R_sim",
}


def max_workers() -> int:
    """Always 1: sweeps run in the calling thread. Kept only until the
    benchmark harness stops reading it for its environment record."""
    return 1


# ---------------------------------------------------------------------------
# sweep configuration and curve emission
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    pi: float = 0.5
    q1: float = 0.0
    q2: float = 0.0
    a: float = 0.2
    b: float = 0.2
    axis: str = "D"
    axis_min: float = 0.0
    axis_max: float = 0.5
    steps: int = 51
    fixed_P: float = math.inf
    fixed_D: float = 0.25
    methods: tuple[str, ...] = ("closed_form",)
    resolution: float = 0.01
    n: int = 12
    trials: int = 10
    seed: int = 1234
    margin: float = 0.4

    def __post_init__(self):
        if self.steps < 2:
            raise DomainError(f"steps must be at least 2, got {self.steps}")
        if self.axis not in ("D", "P"):
            raise DomainError(f"axis must be 'D' or 'P', got {self.axis!r}")
        if not 0.0 <= self.axis_min < self.axis_max <= 1.0:
            raise DomainError(
                f"axis range must satisfy 0 <= min < max <= 1, got "
                f"[{self.axis_min}, {self.axis_max}]"
            )
        if not self.methods:
            raise DomainError("select at least one method")
        unknown = [m for m in self.methods if m not in _METHOD_COLUMNS]
        if unknown:
            raise DomainError(f"unknown methods {unknown}; choose from {tuple(_METHOD_COLUMNS)}")
        if "simulate" in self.methods:
            _check_margins([self.margin])
        if self.axis == "P" and not self.fixed_D >= 0.0:
            raise DomainError(
                f"distortion target D must be a non-negative number, got {self.fixed_D}")

    def model(self) -> SemanticModel:
        return build_model(self.pi, self.q1, self.q2, self.a, self.b)

    def axis_points(self) -> list[tuple[float, float]]:
        axis_vals = np.linspace(self.axis_min, self.axis_max, self.steps)
        if self.axis == "D":
            return [(float(d), self.fixed_P) for d in axis_vals]
        return [(self.fixed_D, float(p)) for p in axis_vals]


def _simulated_rate(model, cfg: SweepConfig, index: int, D: float, P: float) -> float:
    operating = _rate_or_inf(closed_form_rate, model, D, P)
    if math.isinf(operating):
        return math.inf
    rate = operating + cfg.margin
    trial_cfg = TrialConfig(
        n=cfg.n, trials=cfg.trials, seed=derive_seed(cfg.seed, index),
        rate_R1=rate, rate_R2=rate,
    )
    report = random_binning_trial(model, trial_cfg, DecoderLaw.copy_observation())
    slack = 4.0 * (report.empirical_D_se or 0.0)
    if report.empirical_D > D + slack:
        return math.inf  # the desk-scale run missed the distortion target
    return rate


def sweep_curve(cfg: SweepConfig) -> str:
    """CSV document for the configured sweep: every selected method at every
    axis point, in the calling thread, infeasible rates printed as inf;
    deterministic for a fixed config."""
    model = cfg.model()
    points = cfg.axis_points()
    selected = [m for m in _METHOD_COLUMNS if m in cfg.methods]

    def rate(method, index, d, p):
        if method == "closed_form":
            return _rate_or_inf(closed_form_rate, model, d, p)
        # both solvers only validate the resolution; benchmarks/tracing.py reads it here
        if method == "min2":
            return _rate_or_inf(lambda: solve_min2(model, d, p, cfg.resolution).rate)
        if method == "oracle":
            return _rate_or_inf(lambda: oracle_min_rate(model, d, p, cfg.resolution).rate)
        return _simulated_rate(model, cfg, index, d, p)

    columns = [[max(rate(method, index, d, p), 0.0) for index, (d, p) in enumerate(points)]
               for method in selected]
    rows = [(*point, *rates) for point, rates in zip(points, zip(*columns))]
    return _csv("D,P," + ",".join(_METHOD_COLUMNS[m] for m in selected), rows)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_model_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--pi", type=float, default=0.5, help="prior P(S = 1)")
    parser.add_argument("--q", type=float, default=None,
                        help="common observation crossover (sets q1 = q2)")
    parser.add_argument("--q1", type=float, default=None)
    parser.add_argument("--q2", type=float, default=None)
    parser.add_argument("--a", type=float, default=None,
                        help="side-channel crossover for X = 0")
    parser.add_argument("--b", type=float, default=None,
                        help="side-channel crossover for X = 1")
    parser.add_argument("--pi-x", type=float, default=None, dest="pi_x",
                        help="symmetric side-channel crossover (sets a = b)")


def _resolve_model_params(args) -> tuple[float, float, float, float, float]:
    if args.pi_x is not None and (args.a is not None or args.b is not None):
        raise DomainError("--pi-x conflicts with --a/--b")
    if args.q is not None and (args.q1 is not None or args.q2 is not None):
        raise DomainError("--q conflicts with --q1/--q2")
    q1 = args.q if args.q is not None else (args.q1 if args.q1 is not None else 0.0)
    q2 = args.q if args.q is not None else (args.q2 if args.q2 is not None else q1)
    if args.pi_x is not None:
        return (args.pi, q1, q2, args.pi_x, args.pi_x)
    if args.a is None or args.b is None:
        raise DomainError("provide either --pi-x or both --a and --b")
    return (args.pi, q1, q2, args.a, args.b)


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise DomainError(f"{what} must be comma-separated numbers, got {text!r}") from None


def _parse_law(text: str) -> DecoderLaw:
    parts = _parse_floats(text, "--law")
    if len(parts) != 4:
        raise DomainError(f"a decoder law needs 4 comma-separated values, got {text!r}")
    return DecoderLaw(*parts)


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"config line without '=': {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="semrdp",
        description="rate-distortion-perception curves for an indirectly "
                    "observed binary source with side information",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="sweep an axis and emit rate columns")
    curve.set_defaults(handler=_cmd_curve)
    _add_model_flags(curve)
    curve.add_argument("--axis", choices=("D", "P"), default="D")
    curve.add_argument("--P", type=float, default=math.inf,
                       help="perception budget for D sweeps (inf allowed)")
    curve.add_argument("--D", type=float, default=0.25,
                       help="distortion target for P sweeps")
    curve.add_argument("--d-min", type=float, default=0.0)
    curve.add_argument("--d-max", type=float, default=0.5)
    curve.add_argument("--p-min", type=float, default=0.0)
    curve.add_argument("--p-max", type=float, default=0.3)
    curve.add_argument("--steps", type=int, default=51)
    curve.add_argument("--methods", default="closed_form")
    curve.add_argument("--resolution", type=float, default=0.01)
    curve.add_argument("--n", type=int, default=SweepConfig.n)
    curve.add_argument("--trials", type=int, default=10)
    curve.add_argument("--seed", type=int, default=1234)
    curve.add_argument("--margin", type=float, default=0.4)
    curve.add_argument("--out", default=None, help="CSV path (stdout when omitted)")

    oracle = sub.add_parser("oracle", help="exact minimum rate at one point")
    oracle.set_defaults(handler=_cmd_oracle)
    _add_model_flags(oracle)
    oracle.add_argument("--D", type=float, required=True)
    oracle.add_argument("--P", type=float, default=math.inf)
    oracle.add_argument("--out", default=None)

    simulate = sub.add_parser("simulate", help="random-codebook binning runs")
    simulate.set_defaults(handler=_cmd_simulate)
    _add_model_flags(simulate)
    simulate.add_argument("--D", type=float, default=0.2)
    simulate.add_argument("--P", type=float, default=math.inf)
    simulate.add_argument("--margins", default="0.2,0.4,0.8",
                          help="rate margins over the closed form, comma separated")
    simulate.add_argument("--law", default=None,
                          help="decoder law s0,t0,s1,t1 for plain decoding trials "
                               "(skips the binning stage)")
    simulate.add_argument("--n", type=int, default=12)
    simulate.add_argument("--trials", type=int, default=200)
    simulate.add_argument("--seed", type=int, default=1234)
    simulate.add_argument("--r2-gap", type=float, default=0.0,
                          help="rate_R1 - rate_R2 in bits per symbol")
    simulate.add_argument("--out", default=None)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.set_defaults(handler=_cmd_verify)
    verify.add_argument("--seed", type=int, default=20250808)
    verify.add_argument("--quick", action="store_true",
                        help="smaller grids and trial counts (not the official run)")
    verify.add_argument("--out", default=None,
                        help="path prefix; writes <prefix>.txt and <prefix>.csv")

    commands = {"curve": curve, "oracle": oracle, "simulate": simulate,
                "verify": verify}
    for command in commands.values():
        command.add_argument("--config", default=None,
                             help="key=value file merged beneath explicit flags")
    return parser, commands


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _cmd_curve(args) -> int:
    pi, q1, q2, a, b = _resolve_model_params(args)
    axis_min, axis_max = (
        (args.d_min, args.d_max) if args.axis == "D" else (args.p_min, args.p_max)
    )
    cfg = SweepConfig(
        pi=pi, q1=q1, q2=q2, a=a, b=b,
        axis=args.axis, axis_min=axis_min, axis_max=axis_max, steps=args.steps,
        fixed_P=args.P, fixed_D=args.D, resolution=args.resolution,
        methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
        n=args.n, trials=args.trials, seed=args.seed, margin=args.margin,
    )
    _emit(sweep_curve(cfg), args.out)
    return 0


def _cmd_oracle(args) -> int:
    result = oracle_min_rate(build_model(*_resolve_model_params(args)), args.D, args.P)
    row = (args.D, args.P, result.rate, result.achieved_D, result.achieved_P,
           *result.argmin.as_tuple())
    _emit(_csv("D,P,R_oracle,achieved_D,achieved_P,s0,t0,s1,t1", [row]), args.out)
    return 0


def _cmd_simulate(args) -> int:
    model = build_model(*_resolve_model_params(args))
    if args.law is not None:
        law = _parse_law(args.law)
        cfg = TrialConfig(n=args.n, trials=args.trials, seed=args.seed)
        runs = [(cfg, run_decoder_trials(model, law, cfg))]
    else:
        runs = _margin_ladder(model, closed_form_rate(model, args.D, args.P),
                              _parse_floats(args.margins, "--margins"), args.n, args.trials,
                              (args.seed,), args.r2_gap)
    rows = [(str(cfg.n), str(cfg.trials), str(cfg.seed), cfg.rate_R1, cfg.rate_R2,
             report.empirical_D, "" if report.empirical_D_se is None else report.empirical_D_se,
             report.empirical_P_marginal, report.empirical_P_blockwise,
             str(report.bin_decode_failures)) for cfg, report in runs]
    header = ("n,trials,seed,rate_R1,rate_R2,empirical_D,empirical_D_se,"
              "empirical_P_marginal,empirical_P_blockwise,bin_decode_failures")
    _emit(_csv(header, rows), args.out)
    return 0


def _cmd_verify(args) -> int:
    cfg = VerificationConfig(seed=args.seed)
    if args.quick:
        cfg = replace(
            cfg, d_points=8, transform_laws=5, transform_n=20_000,
            consistency_trials=4, consistency_n=4000,
            binning_trials=40, chain_joints=100,
        )
    summary = run_verification(cfg)
    if args.out is not None:
        _emit(summary.to_text(), args.out + ".txt")
        _emit(summary.to_csv(), args.out + ".csv")
    sys.stdout.write(summary.to_text())
    return 0 if summary.all_passed else 1


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            file_values, unknown = _load_config_file(args.config), []
            sub = commands[args.command]
            flags = {action.dest: action for action in sub._actions
                     if action.dest not in ("help", "config")}
            for key, text in file_values.items():
                if key not in flags:
                    unknown.append(key)
                elif flags[key].nargs == 0:  # a flag without a value to convert
                    if text.lower() not in ("true", "false"):
                        raise DomainError(
                            f"{key} in {args.config} must be true or false, got {text!r}"
                        )
                    file_values[key] = text.lower() == "true"
            if unknown:
                raise DomainError(
                    f"unknown keys in {args.config} for '{args.command}': "
                    + ", ".join(sorted(unknown))
                )
            sub.set_defaults(**file_values)
            args = parser.parse_args(argv)
        return args.handler(args)
    except SemRdpError as exc:
        print(f"semrdp: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
