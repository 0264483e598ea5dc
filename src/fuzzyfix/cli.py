"""Command-line interface.

Commands: ``check-space``, ``classify-map``, ``gauge``, ``iterate``,
``solve``, ``paper``.  Common flags: ``--scenario`` (a built-in id or a
file path), ``--format`` (``text`` or ``json-like``), ``--t-grid``,
``--r-grid``, ``--out``; ``check-space`` and ``paper`` also take
``--seed``, and ``check-space``, ``gauge`` and ``iterate`` ``--tolerance``.

Exit status: 0 when every verdict/assertion passes, 1 when any check is
violated or failed, 2 on usage or schema errors, on a map or gauge that
cannot be evaluated, and on a file that cannot be read or written.
Reports carry a versioned schema; given identical inputs the
machine-readable output is byte-identical.  With ``--format json-like``
that output is exactly ``json.dumps(report, sort_keys=True, indent=2)``
plus a newline, written mostly by json's C encoder.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from collections import Counter
from typing import Optional, Sequence

from .algebra import ClassTag, DomainError, GaugeDomain, class_membership, gauge
from .contractions import (
    MParams,
    cm_contractive_check,
    m_contractive_check,
    psi_contractive_check,
)
from .dynamics import picard_orbit, solve_fixed_point
from .papersuite import run_all
from .scenario import SchemaError, load_scenario, parse_grid
from .spaces import axiom_check

REPORT_VERSION = 1

__all__ = ["main", "run_command"]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", help="built-in scenario id or file path")
    common.add_argument("--format", choices=("text", "json-like"),
                        default="text", dest="fmt")
    common.add_argument("--t-grid", dest="t_grid", default=None,
                        help="'default', 'lin:lo:hi:n', 'log:lo:hi:n' "
                             "or comma-separated values")
    common.add_argument("--r-grid", dest="r_grid", default=None,
                        help="same forms as --t-grid, values in (0,1)")
    common.add_argument("--out", default=None, help="write the report here")

    parser = argparse.ArgumentParser(
        prog="fuzzyfix",
        description="graded-nearness spaces, contraction classifiers, and "
                    "fixed-point certification")
    parser.set_defaults(seed=None)      # the report's seed field
    sub = parser.add_subparsers(dest="command", required=True)

    # only the commands that read them take --seed and --tolerance
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None)
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tolerance", type=float, default=None)

    sub.add_parser("check-space", parents=[common, seed, tolerance],
                   help="certify the space axioms of a scenario")

    p = sub.add_parser("classify-map", parents=[common],
                       help="classify the scenario map against a "
                            "contraction definition")
    p.add_argument("--route", choices=("psi", "cm", "m"), default="cm")
    p.add_argument("--form", choices=("between", "onesided"),
                   default="between")

    p = sub.add_parser("gauge", parents=[common, tolerance],
                       help="certify gauge class membership")
    p.add_argument("--gauge", dest="gauge_id", default=None,
                   help="gauge id; defaults to the scenario's gauges")
    p.add_argument("--class-tag", dest="class_tag", default=None,
                   choices=[t.value for t in ClassTag])
    p.add_argument("--eval", dest="eval_at", type=float, default=None,
                   help="also evaluate the gauge at this point")

    p = sub.add_parser("iterate", parents=[common, tolerance],
                       help="run the orbit of the scenario map")
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--max-len", dest="max_len", type=int, default=None)

    p = sub.add_parser("solve", parents=[common],
                       help="run a fixed-point theorem route")
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--route", default=None,
                   choices=("auto", "cm-strong", "cm-general", "m-final"))

    sub.add_parser("paper", parents=[common, seed],
                   help="run the reproduction and proposition suites")
    return parser


_DEFAULT_TAGS = {GaugeDomain.PSI: (ClassTag.PSI, ClassTag.PSI1),
                 GaugeDomain.PHI: (ClassTag.PHI1,),
                 GaugeDomain.ETA: (ClassTag.H,)}


def _grids(args, scenario):
    errors: list = []
    grids = []
    for kind, spec in (("t", args.t_grid), ("r", args.r_grid)):
        if spec is None and scenario is not None:
            grids.append(scenario.t_grid if kind == "t" else scenario.r_grid)
            continue
        if spec is not None and ":" not in spec and spec != "default":
            try:
                spec = [float(v) for v in spec.split(",")]
            except ValueError:
                pass                   # parse_grid reports the bad spec
        grids.append(parse_grid(spec, kind, f"--{kind}-grid", errors))
    if errors:
        raise SchemaError(errors)
    return tuple(grids)


def _cmd_check_space(args, scenario):
    space = scenario.build_space()
    t_grid, _ = _grids(args, scenario)
    seed = args.seed if args.seed is not None else scenario.seed
    tol = args.tolerance if args.tolerance is not None else 1e-12
    report = axiom_check(space, t_grid=t_grid, seed=seed, tol=tol)
    return report.passed, {"axiom_report": report.to_dict()}


def _cmd_classify_map(args, scenario):
    space = scenario.build_space()
    T = scenario.build_map()
    t_grid, r_grid = _grids(args, scenario)
    if args.route == "psi":
        psi = scenario.build_gauges().get("psi")
        if psi is None:
            raise SchemaError([("gauges.psi", "the psi route needs a psi "
                                "gauge in the scenario")])
        report = psi_contractive_check(space, T, psi, t_grid)
    elif args.route == "cm":
        report = cm_contractive_check(space, T, r_grid, t_grid,
                                      form=args.form)
    else:
        cfg = scenario.solver_config()
        report = m_contractive_check(space, T, MParams(cfg.alpha, cfg.beta),
                                     psi=cfg.psi, r_grid=r_grid, t_grid=t_grid)
    return report.satisfied, {"classification": report.to_dict()}


def _cmd_gauge(args, scenario):
    if args.gauge_id is not None:
        gauges = {"cli": gauge(args.gauge_id)}
    elif scenario is not None and scenario.gauges:
        gauges = scenario.build_gauges()
    else:
        raise SchemaError([("--gauge", "no gauge given and the scenario "
                            "declares none")])
    tol = args.tolerance if args.tolerance is not None else 1e-4
    _, r_grid = _grids(args, scenario)
    only = ClassTag(args.class_tag) if args.class_tag is not None else None
    checks = [(role, g, tag) for role, g in sorted(gauges.items())
              for tag in ((only,) if only else _DEFAULT_TAGS[g.domain])]
    reads_grid = {ClassTag.PSI1, ClassTag.PSI}
    if (args.r_grid is not None
            and reads_grid.isdisjoint(t for _, _, t in checks)):
        raise SchemaError([("--r-grid", "no certificate of this command "
                            "reads a threshold grid")])
    certificates = []
    all_member = True
    for role, g, tag in checks:
        grid = r_grid if tag in reads_grid else None
        cert = class_membership(g, tag, r_grid=grid, tau_resolution=tol)
        entry = {"role": role, **cert.to_dict()}
        if args.eval_at is not None:
            entry["eval"] = {"at": args.eval_at, "value": g.eval(args.eval_at)}
        certificates.append(entry)
        all_member &= cert.verdict.value == "member"
    return all_member, {"certificates": certificates}


def _cmd_iterate(args, scenario):
    space = scenario.build_space()
    T = scenario.build_map()
    t_grid, _ = _grids(args, scenario)
    cfg = scenario.solver_config()
    x0 = args.x0 if args.x0 is not None else scenario.x0
    if x0 is None:
        raise SchemaError([("--x0", "no start point given and the scenario "
                            "declares none")])
    max_len = args.max_len if args.max_len is not None else cfg.max_len
    tol = args.tolerance if args.tolerance is not None else cfg.stop_tolerance
    trace = picard_orbit(space, T, x0, max_len, tol, t_grid)
    body = {"trace": {"map": trace.map_name, "stop_reason":
                      trace.stop_reason.value, "length": trace.length,
                      "t_grid": list(trace.t_grid), "rows": trace.rows()}}
    return True, body


def _cmd_solve(args, scenario):
    space = scenario.build_space()
    T = scenario.build_map()
    t_grid, r_grid = _grids(args, scenario)
    cfg = dataclasses.replace(scenario.solver_config(), t_grid=t_grid,
                              r_grid=r_grid)
    x0 = args.x0 if args.x0 is not None else scenario.x0
    if x0 is None:
        raise SchemaError([("--x0", "no start point given and the scenario "
                            "declares none")])
    route = args.route if args.route is not None else scenario.route
    result = solve_fixed_point(space, T, x0, route, cfg)
    return (result.audit_passed and result.converged,
            {"solution": result.to_dict()})


def _cmd_paper(args, scenario):
    seed = args.seed if args.seed is not None else 7
    body = run_all(seed)
    return body["passed"], body


_COMMANDS = {"check-space": (_cmd_check_space, True),
             "classify-map": (_cmd_classify_map, True),
             "gauge": (_cmd_gauge, False),
             "iterate": (_cmd_iterate, True),
             "solve": (_cmd_solve, True),
             "paper": (_cmd_paper, False)}


_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _encoder(depth: int):
    """The C encoder that writes a flat container's members ``depth`` deep.

    Built as ``json.dumps`` builds its own, with the separators that
    ``indent=2`` puts between members at that depth; it leaves the
    brackets on the members' lines, and :func:`_emit_json` moves them."""
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
        None, ": ", ",\n" + "  " * depth, True, False, True)


def _json_key(key) -> str:
    """A dict key as ``json.dumps`` writes it: converted to text, quoted."""
    if not isinstance(key, str):
        if not (isinstance(key, (int, float)) or key is None):
            raise TypeError("keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        key = "".join(_encoder(0)(key, 0))
    return json.encoder.encode_basestring_ascii(key)


def _emit_json(obj, depth: int, out: list) -> None:
    """Append the pieces of ``obj`` rendered ``depth`` containers deep."""
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))) or not obj:
        out.extend(_encoder(depth)(obj, depth))
        return
    pad = "\n" + "  " * (depth + 1)
    if _SCALARS.issuperset(map(type, obj.values() if is_dict else obj)):
        flat = "".join(_encoder(depth + 1)(obj, depth + 1))
        out += (flat[0], pad, flat[1:-1], pad[:-2], flat[-1])
        return
    out.append("{" if is_dict else "[")
    sep = pad
    for item in (sorted(obj.items()) if is_dict else obj):
        out.append(sep)
        sep = "," + pad
        if is_dict:
            out += (_json_key(item[0]), ": ")
            item = item[1]
        _emit_json(item, depth + 1, out)
    out += (pad[:-2], "}" if is_dict else "]")


def _render_json(report: dict) -> str:
    """Exactly ``json.dumps(report, sort_keys=True, indent=2) + "\n"``.

    With ``indent``, ``json.dumps`` runs its pure-Python encoder on every
    value.  Here containers are walked in Python, but each non-empty list
    or dict whose members are all plain scalars goes whole to the C encoder
    that ``json.dumps`` uses without ``indent``, so that the floats of a
    long orbit are written in C.  Every piece goes into one list, joined
    once, so no level holds a copy of its subtree's text."""
    out: list = []
    _emit_json(report, 0, out)
    out.append("\n")
    return "".join(out)


# The text rendering shows the first _PREVIEW entries of a list; the
# outcomes of the hidden entries are tallied by the first of these keys
# each entry has.
_PREVIEW = 24
_OUTCOME_KEYS = ("status", "verdict", "passed", "converged")


def _hidden_tallies(entries) -> list[str]:
    """One "hidden <key>: <value> <count>, ..." line per outcome key."""
    tallies: dict = {}
    for entry in entries:
        if isinstance(entry, dict):
            key = next((k for k in _OUTCOME_KEYS if k in entry), None)
            if key is not None:
                tallies.setdefault(key, Counter())[entry[key]] += 1
    return [f"hidden {key}: " + ", ".join(f"{v} {n}" for v, n in tally.items())
            for key, tally in tallies.items()]


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    if report.get("scenario"):
        lines.append(f"scenario: {report['scenario']}")
    lines.append(f"passed: {report['passed']}")

    def walk(obj, indent=1):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)) and v:
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for item in obj[:_PREVIEW]:
                if isinstance(item, (dict, list)):
                    lines.append(f"{pad}-")
                    walk(item, indent + 1)
                else:
                    lines.append(f"{pad}- {item}")
            hidden = obj[_PREVIEW:]
            if hidden:
                lines.append(f"{pad}... ({len(hidden)} more)")
                lines.extend(f"{pad}  {line}"
                             for line in _hidden_tallies(hidden))

    walk(report["body"])
    return "\n".join(lines) + "\n"


def run_command(argv: Optional[Sequence[str]] = None) -> tuple[int, str]:
    """Dispatch a command line; returns (exit status, rendered report)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the usage message
        return (0 if exc.code == 0 else 2), ""
    try:
        if args.seed is not None and args.seed < 0:
            raise SchemaError([("--seed", "must be a nonnegative integer, "
                                f"got {args.seed}")])
        scenario = (load_scenario(args.scenario)
                    if args.scenario is not None else None)
        fn, needs_scenario = _COMMANDS[args.command]
        if needs_scenario and scenario is None:
            raise SchemaError([("--scenario", "this command needs a scenario")])
        passed, body = fn(args, scenario)
    except SchemaError as exc:
        lines = [f"schema error at {path}: {msg}" for path, msg in exc.errors]
        return 2, "\n".join(lines) + "\n"
    except (DomainError, OSError) as exc:
        return 2, f"error: {exc}\n"

    report = {"report_version": REPORT_VERSION, "command": args.command,
              "scenario": scenario.name if scenario else None,
              "seed": args.seed, "passed": bool(passed), "body": body}
    if args.fmt == "json-like":
        rendered = _render_json(report)
    else:
        rendered = _render_text(report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            return 2, f"error: {exc}\n"
        rendered_out = f"report written to {args.out}\n"
    else:
        rendered_out = rendered
    return (0 if passed else 1), rendered_out


def main(argv: Optional[Sequence[str]] = None) -> int:
    code, output = run_command(argv)
    if output:
        sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
