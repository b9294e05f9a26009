"""Command-line interface: construct, verify, decompose, realize, fan-find,
fan-trials, search, formula.

Each mode is a subcommand (`realize pair|interval`, `fan-find`, `fan-trials`)
whose flags argparse checks, so a usage error exits 2 before a handler runs.

Exit codes: 0 success / claims hold, 1 claims fail or verification failure,
2 usage or unsupported parameter range, 3 an I/O error (unreadable input or
a closed output) or malformed input, or an input too large for memory.
Reports are line-oriented by default; --json switches to structured JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .bigraphic import DegreePairSpec, IntervalRealizationParams, is_bigraphic, \
    realize_bigraphic, realize_interval
from .constructions import chromatic_lower, conditioned_coloring, dirac_threshold, \
    star_fan_lower, star_fan_lower_special, turan_lower
from .errors import ParseError, UnsupportedRangeError
from .fans import find_fan, high_degree_fan
from .graphs import EDGELIST, FORMATS, _decimal, read_coloring, read_graph, write_graph
from .matching import edmonds_gallai
from .ramsey import brute_force_ramsey, fan_ramsey_bounds, star_fan_formula, \
    verify_fan_fan_witness, verify_star_fan_witness

DEFAULT_SEED = 2024


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    # flushed, so that a closed output raises inside main's handler
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json else "\n".join(lines),
          flush=True)


def _report_lines(report) -> list[str]:
    lines = [f"N = {report.n} ({report.kind})"]
    for c in report.claims:
        status = "HOLDS" if c.holds else "FAILS"
        lines.append(f"  {c.prop}: {status}")
        if not c.holds and c.certificate is not None:
            lines.append(f"    certificate: {c.certificate}")
    if report.bound_implied:
        lines.append(f"implies {report.bound_implied}")
    return lines


def cmd_construct(args: argparse.Namespace) -> int:
    if args.kind == "turan":
        graph = turan_lower(args.n, args.k)
        payload = {"kind": args.kind, "n": graph.n, "edges": graph.edge_count(),
                   "fan_free": args.k}
        lines = [f"F_{args.k}-free graph on {graph.n} vertices with "
                 f"{graph.edge_count()} edges"]
    elif args.kind == "chromatic":
        graph = chromatic_lower(args.n).red
        payload = {"kind": args.kind, "N": graph.n,
                   "bound_implied": f"R(F_{args.n}) >= {graph.n + 1}"}
        lines = [f"chromatic coloring on N = {graph.n}", payload["bound_implied"]]
    else:
        if args.kind == "star-fan":
            coloring, params = star_fan_lower(args.m, args.n)
        else:
            coloring, params = star_fan_lower_special(args.n)
        graph = coloring.red
        payload = {"kind": args.kind, "params": params.to_json_dict(),
                   "bound_implied": f"R(K_{{1,{params.m}}}, F_{params.n}) "
                                    f">= {params.N + 1}"}
        label = "star-fan" if args.kind == "star-fan" else "special star-fan"
        lines = [f"{label} coloring on N = {params.N}",
                 f"a={params.a} b={params.b} sigma={params.sigma}",
                 payload["bound_implied"]]
    if args.out:
        write_graph(graph, args.out, args.format)
        lines.append(f"wrote {args.out}")
    elif args.kind == "turan":
        payload["edge_list"] = [list(e) for e in graph.edges()]
    else:
        payload.update(red_edges=[list(e) for e in graph.edges()], N=graph.n)
    _emit(args, payload, lines)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    coloring = read_coloring(args.input, args.format)
    if args.m is None:
        report = verify_fan_fan_witness(coloring, args.n)
    else:
        report = verify_star_fan_witness(coloring, args.m, args.n)
    _emit(args, report.to_json_dict(), _report_lines(report))
    return 0 if report.all_hold else 1


def cmd_decompose(args: argparse.Namespace) -> int:
    part = edmonds_gallai(read_graph(args.input, args.format))
    lines = [f"nu = {part.nu}, deficiency = {part.deficiency}, p = {part.p}",
             f"A = {sorted(part.A)}",
             f"C = {sorted(part.C)}"]
    for i, comp in enumerate(part.D):
        lines.append(f"D_{i + 1} = {sorted(comp)}")
    _emit(args, part.to_json_dict(), lines)
    return 0


def cmd_realize(args: argparse.Namespace) -> int:
    if args.mode == "pair":
        spec = DegreePairSpec(args.x, args.y)
        check = is_bigraphic(spec)
        if not check.ok:
            payload = {"bigraphic": False, "reason": check.reason}
            _emit(args, payload, [f"not bigraphic: {check.reason}"])
            return 1
        g, (left, right) = realize_bigraphic(spec)
        payload = {"bigraphic": True, "n": g.n,
                   "edges": [list(e) for e in g.edges()],
                   "left": sorted(left), "right": sorted(right)}
        lines = [f"bigraphic: realized on {g.n} vertices, "
                 f"{g.edge_count()} edges"]
    else:
        window = {"a": args.a, "b": args.b, "c": args.c, "d": args.d, "sigma": args.sigma}
        g = realize_interval(IntervalRealizationParams(**window))
        payload = {**window, "edges": [list(e) for e in g.edges()],
                   "degrees": g.degrees()}
        lines = [f"interval realization on {g.n} vertices, "
                 f"{g.edge_count()} edges",
                 f"degrees: {g.degrees()}"]
    if args.out:
        write_graph(g, args.out, args.format)
        lines.append(f"wrote {args.out}")
    _emit(args, payload, lines)
    return 0


def cmd_fan_find(args: argparse.Namespace) -> int:
    w = find_fan(read_graph(args.input, args.format), args.k)
    if w is None:
        _emit(args, {"found": False, "k": args.k}, [f"no F_{args.k}"])
    else:
        payload = {"found": True, "k": args.k, "witness": w.to_json_dict()}
        _emit(args, payload, [f"F_{args.k} centered at {w.center}",
                              f"spokes: {list(w.spokes)}"])
    return 0


def cmd_fan_trials(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    found = sum(high_degree_fan(conditioned_coloring(rng, args.n), args.n) is not None
                for _ in range(args.trials))
    payload = {"trials": args.trials, "found": found, "n": args.n, "seed": args.seed}
    _emit(args, payload, [f"{found}/{args.trials} conditioned trials produced "
                          f"a monochromatic F_{args.n}"])
    return 0 if found == args.trials else 1


def cmd_search(args: argparse.Namespace) -> int:
    result = brute_force_ramsey((args.blue_kind, args.blue_size),
                                (args.red_kind, args.red_size),
                                args.cap)
    _emit(args, result.to_json_dict(), [result.describe()])
    return 0


def cmd_formula(args: argparse.Namespace) -> int:
    if args.which == "star-fan":
        res = star_fan_formula(args.m, args.n)
        lines = [f"regime: {res.regime}",
                 f"value = {res.lower}" if res.exact
                 else f"bounds: ({res.lower:.6g}, {res.upper:.6g})"]
    elif args.which == "fan":
        res = fan_ramsey_bounds(args.n, args.epsilon)
        lines = [f"lower = {res.lower:.6g}",
                 f"upper = {res.upper:.6g} "
                 f"({'valid' if res.upper_valid else 'gate not met'})"]
        lines.extend(res.notes)
    else:
        res = dirac_threshold(args.n, args.k)
        lines = [f"case {res.case} ({res.label}): threshold {res.threshold:.6g}"
                 + (" up to an additive constant" if res.theta_unresolved else "")]
    _emit(args, res.to_json_dict(), lines)
    return 0


def _integer(text: str) -> int:
    """An ASCII decimal integer, by the rule that graph files follow."""
    if not _decimal(text):
        raise argparse.ArgumentTypeError(f"must be a decimal integer, got {text!r}")
    return int(text)


def _degree_list(text: str) -> list[int]:
    """Comma-separated degrees, e.g. '3,2,2'."""
    return [_integer(t) for t in text.split(",")]


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fanramsey",
                                  description="Fan Ramsey constructions and oracles")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p, func, with_fmt=True):
        p.add_argument("--json", action="store_true", help="emit structured JSON")
        if with_fmt:
            p.add_argument("--format", choices=FORMATS, default=EDGELIST)
        p.set_defaults(func=func)

    c = sub.add_parser("construct", help="build a lower-bound coloring or graph")
    kinds = c.add_subparsers(dest="kind", required=True)
    for kind, flag in (("star-fan", "--m"), ("star-fan-special", None),
                       ("chromatic", None), ("turan", "--k")):
        p = kinds.add_parser(kind)
        if flag:
            p.add_argument(flag, type=_integer, required=True)
        p.add_argument("--n", type=_integer, required=True)
        p.add_argument("--out")
        common(p, cmd_construct)

    v = sub.add_parser("verify", help="verify a coloring against the targets")
    v.add_argument("input")
    v.add_argument("--m", type=_integer)
    v.add_argument("--n", type=_integer, required=True)
    common(v, cmd_verify)

    d = sub.add_parser("decompose", help="Gallai-Edmonds partition of a graph")
    d.add_argument("input")
    common(d, cmd_decompose)

    r = sub.add_parser("realize", help="bipartite degree realization")
    modes = r.add_subparsers(dest="mode", required=True)
    pair = modes.add_parser("pair", help="realize left (--x) and right (--y) degrees")
    for flag in ("--x", "--y"):
        pair.add_argument(flag, type=_degree_list, required=True,
                          help="comma-separated degrees")
    interval = modes.add_parser("interval", help="realize a degree-window target")
    for flag in ("--a", "--b", "--c", "--d", "--sigma"):
        interval.add_argument(flag, type=_integer, required=True)
    for p in (pair, interval):
        p.add_argument("--out")
        common(p, cmd_realize)

    f = sub.add_parser("fan-find", help="search a graph for F_k")
    f.add_argument("input")
    f.add_argument("--k", type=_positive_int, required=True)
    common(f, cmd_fan_find)

    t = sub.add_parser("fan-trials", help="run conditioned high-degree trials")
    t.add_argument("--n", type=_positive_int, required=True)
    t.add_argument("--trials", type=_positive_int, required=True)
    t.add_argument("--seed", type=_integer, default=DEFAULT_SEED,
                   help=f"default {DEFAULT_SEED}")
    common(t, cmd_fan_trials, with_fmt=False)

    s = sub.add_parser("search", help="exhaustive small Ramsey number search")
    s.add_argument("blue_kind", choices=["star", "fan"])
    s.add_argument("blue_size", type=_integer)
    s.add_argument("red_kind", choices=["star", "fan"])
    s.add_argument("red_size", type=_integer)
    s.add_argument("--cap", type=_integer, required=True)
    common(s, cmd_search, with_fmt=False)

    fo = sub.add_parser("formula", help="evaluate a bound formula")
    which = fo.add_subparsers(dest="which", required=True)
    for name, flag, kind in (("star-fan", "--m", _integer),
                             ("fan", "--epsilon", float), ("dirac", "--k", _integer)):
        p = which.add_parser(name)
        p.add_argument(flag, type=kind, required=True)
        p.add_argument("--n", type=_integer, required=True)
        common(p, cmd_formula, with_fmt=False)
    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except BrokenPipeError:
        # a closed output, as when piped into head: what is still buffered
        # goes to devnull, so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    except (ParseError, OSError) as exc:
        error, status = exc, 3
    except MemoryError:
        # an input too large for memory; 1 would read as a failing claim
        error, status = "out of memory", 3
    except (UnsupportedRangeError, ValueError) as exc:
        error, status = exc, 2
    except RuntimeError as exc:
        error, status = exc, 1
    print(f"error: {error}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
