"""Command-line interface.

Subcommands: ``effects``, ``alphas``, ``threshold``, ``prob``,
``simulate``, ``ks-check``, ``verify``.  Angles are radians unless
``--degrees`` is given.  Commands that take a misalignment model take
exactly one of ``--epsilon`` (a uniform cap) and ``--profile`` (a
tabulated axial profile).  Every command prints a human-readable summary
and, with ``--output PATH``, writes the same results as a JSON report
with stable key order; identical invocations produce byte-identical
output.  Input errors print ``error: ...`` to stderr, naming the flag or
file they came from, nothing to stdout, and exit with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, formats
from .ks_solver import ks_pipeline
from .misalignment import UniformCap
from .spin_core import unit_from_polar, unit_rows
from .unsharp_povm import (
    alphas_axial,
    alphas_uniform_cap,
    check_delta,
    condition2_check,
    effects,
    outcome_probabilities,
    simulate_outcomes,
    threshold_epsilon,
)


_OUTCOME_LABEL = {1: "+1", 0: "0", -1: "-1"}


def _fixed(x: float, sign: str = "") -> str:
    # fixed 1e-12 resolution: rounding dust prints as 0 (never -0) and stays put
    return f"{round(float(x), 12) + 0.0:{sign}.12f}"


def _fmt_complex(z: complex) -> str:
    return f"{_fixed(z.real)}{_fixed(z.imag, '+')}i"


def _print_matrix(label: str, m: np.ndarray, out) -> None:
    out.write(f"{label}:\n")
    for row in np.asarray(m, dtype=complex):
        out.write("  " + "  ".join(f"{_fmt_complex(z):>31s}" for z in row) + "\n")


def _matrix_rows(m: np.ndarray) -> list[list[list[float]]]:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _parse_state(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--state expects three comma-separated amplitudes, got {text!r}")
    amplitudes = []
    for part in parts:
        amp = part.strip()
        try:  # a trailing i is the imaginary unit; the i of "inf" is not
            amplitudes.append(complex(amp[:-1] + "j" if amp.endswith("i") else amp))
        except ValueError:
            raise ValueError(f"--state amplitude {part!r} is not a number") from None
        if not np.isfinite(amplitudes[-1]):
            raise ValueError(f"--state amplitude {part!r} is not finite")
    try:
        return unit_rows(np.array([amplitudes]))[0]
    except ValueError:  # the one row is zero
        raise ValueError("--state must be a nonzero vector") from None


@contextlib.contextmanager
def _flag(label: str):
    # an input error raised inside names the flag (or file) it came from
    try:
        yield
    except (OSError, ValueError) as exc:
        raise ValueError(f"{label}: {exc}") from None


def _angle(value: float, degrees: bool) -> float:
    return float(np.radians(value)) if degrees else float(value)


def _direction(args) -> np.ndarray:
    parts = args.direction.split(",")
    if len(parts) != 2:
        raise ValueError(f"--direction: expects two comma-separated angles, got {args.direction!r}")
    try:
        theta, phi = map(float, parts)
    except ValueError:
        raise ValueError(f"--direction: non-numeric angle in {args.direction!r}") from None
    if not np.isfinite([theta, phi]).all():
        raise ValueError(f"--direction: angles must be finite, got {args.direction!r}")
    return unit_from_polar(_angle(theta, args.degrees), _angle(phi, args.degrees))


def _model(args):
    if args.profile is not None:
        with _flag("--profile"):
            return formats.load_profile_file(args.profile)
    with _flag(f"--epsilon {args.epsilon!r} --degrees" if args.degrees else "--epsilon"):
        return UniformCap(_angle(args.epsilon, args.degrees))


def _emit(args, report: dict, out) -> None:
    if args.output:
        with _flag("--output"):
            formats.write_report(args.output, report)
        out.write(f"report written to {args.output}\n")


def cmd_effects(args, out) -> int:
    n = _direction(args)
    model = _model(args)
    triple = effects(n, model)
    residual_identity, eig_min, eig_max = triple.residuals()
    for i in (1, 0, -1):
        _print_matrix(f"effect({_OUTCOME_LABEL[i]})", triple.effect(i), out)
    # the sharp projectors sum to I, so the residual is rounding only
    out.write("sum-to-identity residual: <= 1e-10\n")
    out.write(f"eigenvalue range: [{_fixed(eig_min)}, {_fixed(eig_max)}]\n")
    report = {
        "command": "effects",
        "direction": [float(x) for x in n],
        "model": model.describe(),
        "effects": {
            "plus": _matrix_rows(triple.f_plus),
            "zero": _matrix_rows(triple.f_zero),
            "minus": _matrix_rows(triple.f_minus),
        },
        "residuals": {
            "sum_to_identity": residual_identity,
            "eigenvalue_min": eig_min,
            "eigenvalue_max": eig_max,
        },
    }
    _emit(args, report, out)
    return 0


def cmd_alphas(args, out) -> int:
    model = _model(args)
    quadrature_alphas = alphas_axial(model)
    closed = alphas_uniform_cap(model.epsilon) if isinstance(model, UniformCap) else None
    out.write(f"model: {model.describe()}\n")
    tags = ("a1", "a2", "a3", "a4")
    for tag, value in zip(tags, quadrature_alphas.as_tuple()):
        out.write(f"{tag} (quadrature)  = {value:.12g}\n")
    payload = {
        "command": "alphas",
        "model": model.describe(),
        "quadrature": asdict(quadrature_alphas),
    }
    if closed is not None:
        diff = max(
            abs(a - b)
            for a, b in zip(closed.as_tuple(), quadrature_alphas.as_tuple())
        )
        for tag, value in zip(tags, closed.as_tuple()):
            out.write(f"{tag} (closed form) = {value:.12g}\n")
        out.write(f"closed form vs quadrature: {diff:.3e}\n")
        payload["closed_form"] = asdict(closed)
        payload["max_difference"] = diff
    _emit(args, payload, out)
    return 0


def cmd_threshold(args, out) -> int:
    delta = args.delta
    with _flag("--delta"):
        eps = threshold_epsilon(delta)
    degrees = float(np.degrees(eps))
    out.write(f"epsilon* = {eps:.3f} rad = {degrees:.1f} deg\n")
    out.write(f"full precision: {eps!r} rad\n")
    ok, margins = condition2_check(alphas_uniform_cap(eps), delta)
    out.write(f"condition at threshold: ok={ok}, margins={ {k: round(v, 9) for k, v in margins.items()} }\n")
    report = {
        "command": "threshold",
        "delta": delta,
        "epsilon_rad": eps,
        "epsilon_deg": degrees,
        "condition2": {"ok": ok, "margins": margins},
    }
    _emit(args, report, out)
    return 0


def cmd_prob(args, out) -> int:
    psi = _parse_state(args.state)
    n = _direction(args)
    model = _model(args)
    triple = effects(n, model)
    p = outcome_probabilities(psi, triple)
    for outcome, value in zip((1, 0, -1), p):
        out.write(f"P(outcome {_OUTCOME_LABEL[outcome]}) = {_fixed(value)}\n")
    out.write(f"sum = {sum(p):.12g}\n")
    report = {
        "command": "prob",
        "state": [[float(a.real), float(a.imag)] for a in psi],
        "direction": [float(x) for x in n],
        "model": model.describe(),
        "probabilities": {"plus": p[0], "zero": p[1], "minus": p[2]},
    }
    _emit(args, report, out)
    return 0


def cmd_simulate(args, out) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed: must be a non-negative integer, got {args.seed}")
    psi = _parse_state(args.state)
    n = _direction(args)
    model = _model(args)
    with _flag("--trials"):
        counts = simulate_outcomes(psi, n, model, args.trials, args.seed)
    probs = outcome_probabilities(psi, effects(n, model))
    out.write(f"trials = {args.trials}, seed = {args.seed}\n")
    for outcome, c, p in zip((1, 0, -1), counts, probs):
        freq = c / args.trials
        sigma = max(float(np.sqrt(p * (1.0 - p) / args.trials)), 1e-300)
        out.write(
            f"outcome {_OUTCOME_LABEL[outcome]}: count {c} freq {freq:.6f} "
            f"analytic {p:.6f} deviation {abs(freq - p) / sigma:.2f} sigma\n"
        )
    report = {
        "command": "simulate",
        "state": [[float(a.real), float(a.imag)] for a in psi],
        "direction": [float(x) for x in n],
        "model": model.describe(),
        "trials": args.trials,
        "seed": args.seed,
        "counts": {"plus": counts[0], "zero": counts[1], "minus": counts[2]},
        "probabilities": {"plus": probs[0], "zero": probs[1], "minus": probs[2]},
    }
    _emit(args, report, out)
    return 0


def cmd_ks_check(args, out) -> int:
    with _flag("--directions"):
        name, directions = formats.load_direction_file(args.directions)
    model = _model(args)
    with _flag("--delta"):
        check_delta(args.delta)
    report = ks_pipeline(directions, model, args.delta, name=name)
    out.write(f"direction set: {name} ({len(directions)} directions)\n")
    out.write(f"model: {report.model_description}, delta = {args.delta}\n")
    a1, a2, a3, a4 = report.alphas.as_tuple()
    out.write(f"alphas: a1={a1:.6f} a2={a2:.6f} a3={a3:.6f} a4={a4:.6f}\n")
    out.write(f"condition2: {'ok' if report.condition2_ok else 'FAILED'}\n")
    if report.solve is not None:
        out.write(
            f"eigenrays: {report.ray_count}, orthogonal pairs: "
            f"{report.ortho_pair_count}, tripods: {report.tripod_count}\n"
        )
        out.write(
            f"solver: {report.solve.verdict} "
            f"({report.solve.nodes_explored} nodes, depth {report.solve.max_depth})\n"
        )
    out.write(f"conclusion: {report.conclusion}\n")
    _emit(args, report.to_dict(), out)
    return 0


def cmd_verify(args, out) -> int:
    from . import verify  # only this command loads the suite

    ok, results = verify.run_verification(stream=out)
    passed = sum(1 for r in results if r["ok"])
    out.write(f"{passed}/{len(results)} properties passed\n")
    _emit(args, {"command": "verify", "ok": ok, "results": results}, out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unsharp-spin",
        description=(
            "Unsharp spin-1 effects from misalignment densities and "
            "Kochen-Specker non-colorability checks."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, direction=False, state=False):
        if direction:
            p.add_argument("--direction", required=True, metavar="THETA,PHI",
                           help="intended direction in polar angles")
        if state:
            p.add_argument("--state", required=True, metavar="A,B,C",
                           help="state amplitudes, e.g. 0,1,0 or 0.5+0.5j,0,0.707")
        model = p.add_mutually_exclusive_group(required=True)
        model.add_argument("--epsilon", type=float,
                           help="uniform-cap half-angle (radians unless --degrees)")
        model.add_argument("--profile", help="tabulated axial profile file")
        p.add_argument("--degrees", action="store_true", help="interpret input angles as degrees")
        p.add_argument("--output", help="also write a JSON report to this path")

    p = sub.add_parser("effects", help="construct the three unsharp effects")
    add_common(p, direction=True)
    p.set_defaults(func=cmd_effects)

    p = sub.add_parser("alphas", help="effect eigenvalues (closed form and quadrature)")
    add_common(p)
    p.set_defaults(func=cmd_alphas)

    p = sub.add_parser("threshold", help="largest cap half-angle passing the separation condition")
    p.add_argument("--delta", type=float, required=True, help="unsharpness tolerance in [0, 0.5)")
    p.add_argument("--output", help="also write a JSON report to this path")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("prob", help="outcome probabilities for a pure state")
    add_common(p, direction=True, state=True)
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("simulate", help="stochastic outcome simulation")
    add_common(p, direction=True, state=True)
    p.add_argument("--trials", type=int, required=True, help="number of trials (>= 1)")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ks-check", help="noncontextuality check for a direction set")
    p.add_argument("--directions", required=True, help="direction-set file")
    add_common(p)
    p.add_argument("--delta", type=float, required=True, help="unsharpness tolerance in [0, 0.5)")
    p.set_defaults(func=cmd_ks_check)

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("--output", help="also write a JSON report to this path")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = io.StringIO()  # stdout only once the whole command has succeeded
    try:
        code = args.func(args, out)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
