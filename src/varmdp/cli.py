"""Command-line front end.

Subcommands cover the whole pipeline: instance generation, expected-value
solving, exact distributions, threshold percentiles, exact and estimated
Pareto fronts, the pair-state transformation, CDF estimation, seeded
simulation, and CDF comparison.  Outputs are deterministic given inputs
and seeds.  A regular output file is replaced atomically, keeping its
mode; a FIFO or device is written in place.  ``build_parser`` declares
each subcommand through one ``command`` helper, which gives it
``-o/--output`` and, when it reads one, the ``document`` positional
(default stdin).  ``main`` builds only the named subcommand's parser
(0.2 ms against 1.2 ms for all ten); help, a leading flag, no or an
unknown name, or an argument that parser leaves over goes to the full
parser, so every help, usage and refusal text is unchanged.  Commands
return their ``(path, text)`` outputs, ``-o`` first, then a side file;
``main`` alone writes them, in order, and returns the exit code.

``main`` is the library entry: the tests and the benchmark's traced
replay call it in-process, and it returns, leaving the garbage collector
as it found it.  ``run`` is the process entry, for ``python -m
varmdp.cli`` and the ``varmdp`` script: it turns the cyclic collector
off, calls ``main``, flushes stdout and stderr (if the process started
with them open), and ends the process with ``os._exit``, which skips the
interpreter's teardown (clearing every module, the final garbage
collection, atexit handlers) once every output file is closed.  Under a
tracer or a profiler (coverage, cProfile, a debugger) it exits through
``sys.exit`` instead, so that those tools still write their reports.

A name loads its module on first read, as in the package.  This module
imports what every subcommand shares; each solver entry point
(``solve_threshold_var``, ``pareto_front_exact``, ``transform``,
``estimate_cdf``, ``pareto_front_long``, ``simulate``) is a package
export read through ``_layer``, this module's ``__getattr__``, when a
subcommand first calls it.  So each subcommand loads only the layers it
runs; numpy comes with the float layers (``transform`` is exact), and
``compare`` loads it itself; ``inventory`` loads only for
``gen-inventory``, whose parser lists its presets.  No subcommand loads
``dataclasses``: the records are plain classes (see ``mdp``), so
``inspect`` comes only with numpy.  ``_dec`` prints a float column's
value straight; an exact value that no normal float holds prints through
an exact decimal.

Exit codes: 0 success, 2 parse/validation error (an unreadable or
undecodable input too), 3 precondition violation, 4 budget refusal or an
array too large to allocate, 5 ergodicity/degeneracy error.  A refusal
keeps its code when stderr is closed or cannot be written; only its
message is lost.
"""

from __future__ import annotations

import argparse
import csv
import errno
import gc
import io
import json
import math
import os
import stat
import sys
import tempfile
from decimal import Context, Decimal
from fractions import Fraction
from itertools import accumulate

from .documents import (dump_document, load_document, mdp_from_document,
                        mdp_to_document, mrp_from_document, mrp_to_document,
                        state_index)
from .errors import (BudgetExceededError, DegenerateVarianceError, ErgodicityError,
                     PreconditionError, ValidationError, VarMdpError)
from .mdp import (DeterministicPolicy, exact_total_reward_distribution,
                  expected_backward_induction, simplify_reward)
from .rationals import format_rational, parse_rational

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4
EXIT_ERGODICITY = 5

_EXIT_CODES = {ValidationError: EXIT_PARSE, PreconditionError: EXIT_PRECONDITION,
               BudgetExceededError: EXIT_BUDGET, ErgodicityError: EXIT_ERGODICITY,
               DegenerateVarianceError: EXIT_ERGODICITY}

_DECIMAL_12 = Context(prec=12)  # division rounds to 12 significant digits, half to even

_SCHEMA_NOTE = "Document schemas: mdp-v1 and mrp-v1 (JSON; numerics as exact strings)."


def _layer(name: str):
    """The package export ``name``, its module loaded on first read, bound in this module.

    It is also this module's ``__getattr__`` (PEP 562).  ``setdefault``
    returns a name already bound here (a timing wrapper, say) unchanged.
    """
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(package, name))


__getattr__ = _layer


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"input: cannot read {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    to_stdout = path is None or path == "-"
    try:
        if to_stdout:
            if sys.stdout is None:  # the process started with its standard output closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            _replace_file(os.path.realpath(path), text)  # a symlink is written through
    except OSError as exc:
        name = "<stdout>" if to_stdout else path
        raise ValidationError(f"output: cannot write {name}: {exc.strerror or exc}") from exc


def _replace_file(target: str, text: str) -> None:
    if os.path.exists(target) and not os.path.isfile(target):  # a FIFO or a device
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    umask = os.umask(0)
    os.umask(umask)
    mode = os.stat(target).st_mode if os.path.exists(target) else 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".varmdp-")
    try:
        os.fchmod(fd, stat.S_IMODE(mode))
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _dec(value) -> str:
    """A float or an exact value to 12 significant digits; an exact value no normal float holds
    (past the float range, or nonzero below ``sys.float_info.min``) through an exact decimal."""
    if type(value) is float:
        return f"{value:.12g}"
    try:
        approx = float(value)
        if not (value and abs(approx) < sys.float_info.min):
            return f"{approx:.12g}"
    except OverflowError:
        pass
    exact = _DECIMAL_12.divide(Decimal(value.numerator), value.denominator)
    return f"{exact.normalize(_DECIMAL_12):g}"  # trailing zeros dropped, as .12g drops them


def _exact_pair(q: Fraction) -> str:
    return f"{format_rational(q)} = {_dec(q)}"


def _front_outputs(args, front, cells, header: list[str]) -> list:
    """A front's CSV, ``cells`` formatting tau and value, then its policy listings if asked."""
    rows = [[*cells(t), *cells(v), w] for t, v, w in zip(front.grid, front.value, front.witness)]
    outputs = [(args.output, _csv_text([*header, "witness_policy_id"], rows))]
    if args.policies_out:
        rows = [[pid, listing.replace("\n", "; ")]
                for pid, listing in sorted(front.policies.items())]
        outputs.append((args.policies_out, _csv_text(["policy_id", "rules"], rows)))
    return outputs


def _load_mdp(path: str):
    return mdp_from_document(load_document(_read_text(path)))


def _load_mrp(path: str):
    return mrp_from_document(load_document(_read_text(path)))


def _require_array_size(count: int, flag: str) -> None:
    """Refuse, as out of memory, a count of float64 values no numpy array can hold."""
    if count > sys.maxsize // 8:
        raise MemoryError(f"{flag}: {count} values exceed the largest numpy array "
                          f"({sys.maxsize // 8} float64 values)")


def _parse_grid(spec: str):
    import numpy as np
    try:
        lo, hi, steps = spec.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise ValidationError(f"grid: expected lo:hi:steps, got {spec!r}") from None
    if steps < 2 or not hi > lo:
        raise ValidationError("grid: need hi > lo and steps >= 2")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"grid: bounds must be finite, got {spec!r}")
    if not math.isfinite(hi - lo):  # np.linspace would overflow forming it
        raise ValidationError(f"grid: span hi - lo must be finite, got {spec!r}")
    _require_array_size(steps, "grid")
    return np.linspace(lo, hi, steps)


def _load_policy(path: str, mdp) -> DeterministicPolicy:
    doc = load_document(_read_text(path))
    if not isinstance(doc, dict):
        raise ValidationError("policy: expected a JSON object")
    raw = doc.get("rules")
    if not isinstance(raw, list) or not raw:
        raise ValidationError("policy: missing 'rules' list")
    rules = []
    for i, rule in enumerate(raw):
        if not isinstance(rule, dict):
            raise ValidationError(f"policy.rules[{i}]: expected an object mapping "
                                  f"state names to actions")
        rules.append({state_index(mdp.states, k, f"policy.rules[{i}]"): v
                      for k, v in rule.items()})
    stationary = doc.get("stationary", len(raw) == 1)
    if not isinstance(stationary, bool):
        raise ValidationError(f"policy.stationary: expected true or false, got {stationary!r}")
    return DeterministicPolicy(rules=tuple(rules), stationary=stationary)


def _require_positive(value: int, flag: str) -> None:
    if value < 1:
        raise ValidationError(f"{flag}: must be >= 1, got {value}")


def cmd_gen_inventory(args) -> list:
    from . import inventory
    mdp = inventory.PRESETS[args.preset]()
    if args.simplify:
        mdp = simplify_reward(mdp)
    return [(args.output, dump_document(mdp_to_document(mdp)))]


def cmd_solve_expected(args) -> list:
    mdp = _load_mdp(args.document)
    value, policy = expected_backward_induction(mdp)
    lines = [f"optimal expected total reward = {_exact_pair(value)}"]
    for t, rule in enumerate(policy.rules):
        for x in sorted(rule):
            lines.append(f"t={t} {mdp.states[x]} -> {rule[x]}")
    return [(args.output, "\n".join(lines) + "\n")]


def cmd_dist_exact(args) -> list:
    _require_positive(args.budget, "budget")
    mdp = _load_mdp(args.document)
    if args.policy:
        policy = _load_policy(args.policy, mdp)
    else:
        _, policy = expected_backward_induction(mdp)
    dist = exact_total_reward_distribution(mdp, policy, max_states=args.budget)
    rows = [[format_rational(s), _dec(s), format_rational(p), _dec(p)]
            for s, p in zip(dist.support, dist.prob)]
    return [(args.output, _csv_text(["value", "value_decimal", "prob", "prob_decimal"], rows))]


def cmd_var_threshold(args) -> list:
    from .augmented import listings
    _require_positive(args.max_aug_states, "max-aug-states")
    mdp = _load_mdp(args.document)
    tau = parse_rational(args.tau, "tau")
    solution = _layer("solve_threshold_var")(mdp, tau, max_states=args.max_aug_states)
    return [(args.output, f"eta = {_exact_pair(solution.eta)}\n"
                          f"{listings((solution,), mdp.states)[0]}\n")]


def cmd_pareto_short(args) -> list:
    _require_positive(args.max_aug_states, "max-aug-states")
    mdp = _load_mdp(args.document)
    front = _layer("pareto_front_exact")(mdp, max_states=args.max_aug_states)
    return _front_outputs(args, front, lambda q: [format_rational(q), _dec(q)],
                          ["tau", "tau_decimal", "pareto_value", "pareto_value_decimal"])


def cmd_transform(args) -> list:
    mrp = _load_mrp(args.document)
    return [(args.output, dump_document(mrp_to_document(_layer("transform")(mrp))))]


def cmd_estimate_cdf(args) -> list:
    mrp = _load_mrp(args.document)
    taus = _parse_grid(args.grid)
    cdf = _layer("estimate_cdf")(mrp, args.n_steps)
    values = cdf.evaluate(taus)
    rows = [[_dec(t), _dec(v)] for t, v in zip(taus.tolist(), values.tolist())]
    outputs = [(args.output, _csv_text(["tau", "cdf"], rows))]
    if args.sidecar:
        outputs.append((args.sidecar, json.dumps(cdf._asdict(), indent=2) + "\n"))
    return outputs


def cmd_pareto_long(args) -> list:
    _require_positive(args.max_policies, "max-policies")
    mdp = _load_mdp(args.document)
    front = _layer("pareto_front_long")(mdp, args.horizon, _parse_grid(args.grid),
                                        max_policies=args.max_policies)
    return _front_outputs(args, front, lambda q: [_dec(q)], ["tau", "pareto_value"])


def cmd_simulate(args) -> list:
    import numpy as np
    _require_positive(args.quantiles, "quantiles")
    _require_array_size(args.samples, "samples")
    _require_array_size(args.quantiles, "quantiles")
    mrp = _load_mrp(args.document)
    totals = _layer("simulate")(mrp, samples=args.samples, seed=args.seed, n_steps=args.n)
    qs = np.linspace(0.0, 1.0, args.quantiles)
    values = np.quantile(totals, qs, method="inverted_cdf")
    rows = [[_dec(q), _dec(v)] for q, v in zip(qs.tolist(), values.tolist())]
    return [(args.output, _csv_text(["quantile", "value"], rows))]


def _float(q: Fraction) -> float:
    """``float(q)``, or an infinity of its sign past the float range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _cell(text: str) -> float:
    """A CSV number: an exact ratio such as ``1/16`` (from ``pareto-short``) or a float."""
    return _float(Fraction(text)) if "/" in text else float(text)


def _read_cdf_csv(path: str):
    """``(taus, values, shape)`` of a CDF table; ``shape`` says how it runs between its taus.

    A ``pareto-short`` front (``tau_decimal`` in the header) stores
    ``P(total < tau)``, a left-continuous step; a ``dist-exact`` table
    (``value`` and ``prob``) is the right-continuous step of the running sum
    of ``prob``; every other table is read as piecewise linear.
    """
    import numpy as np
    rows = list(csv.reader(io.StringIO(_read_text(path))))
    if len(rows) < 2:
        raise ValidationError(f"{path}: expected a CSV with a header and data rows")
    header = rows[0]
    try:
        ti, vi, shape = 0, 1, "linear"
        if "tau" in header:
            ti = header.index("tau")
            for name in ("cdf", "pareto_value", "value"):
                if name in header:
                    vi = header.index(name)
                    break
            if "tau_decimal" in header:
                shape = "left"
        elif "value" in header and "prob" in header:
            ti, vi, shape = header.index("value"), header.index("prob"), "right"
        elif "quantile" in header and "value" in header:  # simulate: F(value) = quantile
            ti, vi = header.index("value"), header.index("quantile")
        taus = np.array([_cell(r[ti]) for r in rows[1:]])
        if shape == "right":  # summed exactly, so the last value is 1, not 1 + ulp
            vals = np.array([_float(c) for c in accumulate(Fraction(r[vi]) for r in rows[1:])])
        else:
            vals = np.array([_cell(r[vi]) for r in rows[1:]])
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        raise ValidationError(f"{path}: cannot parse CDF columns ({exc})") from exc
    bad = np.flatnonzero(~(np.isfinite(taus) & np.isfinite(vals)))
    if bad.size:
        i = bad[0]  # a number past the float range reads as an infinity too
        column, name = (ti, "tau") if not np.isfinite(taus[i]) else (vi, "value")
        if rows[i + 1][column].strip().lstrip("+-").lower() in ("inf", "infinity", "nan"):
            raise ValidationError(f"{path}: line {i + 2}: tau and value must be finite")
        raise ValidationError(f"{path}: line {i + 2}: {name} lies past the float range "
                              f"(beyond {sys.float_info.max:.6g})")
    bad = np.flatnonzero((vals < 0) | (vals > 1))
    if bad.size:
        raise ValidationError(f"{path}: line {bad[0] + 2}: CDF value must lie in [0, 1]")
    points, inverse = np.unique(taus, return_inverse=True)  # a repeated tau keeps its top value
    top = np.full(len(points), -np.inf)
    np.maximum.at(top, inverse, vals)
    return points, top, shape


def _span(table) -> tuple[float, float]:
    """Where a table's CDF is known: a linear table on its taus, a step table everywhere."""
    taus, _, shape = table
    return (taus[0], taus[-1]) if shape == "linear" else (-math.inf, math.inf)


def _on_grid(table, grid):
    """A table's CDF at the points of ``grid``, which lie inside the table's span.

    A front holds its first value below its first tau and is 1 above its
    last; a distribution is 0 below its first value and its total from the
    last value on.
    """
    import numpy as np
    taus, values, shape = table
    if shape == "linear":
        return np.interp(grid, taus, values)
    if shape == "left":  # constant on (taus[k - 1], taus[k]]
        return np.append(values, 1.0)[np.searchsorted(taus, grid, side="left")]
    # constant on [taus[k], taus[k + 1])
    return np.insert(values, 0, 0.0)[np.searchsorted(taus, grid, side="right")]


# Where a table's limits at both ends of an interval (grid[i], grid[i + 1])
# sit among its values on the grid: at index i + shift.
_END_SHIFTS = {"linear": (0, 1), "left": (1, 1), "right": (0, 0)}


def cmd_compare(args) -> list:
    import numpy as np
    a, b = _read_cdf_csv(args.file_a), _read_cdf_csv(args.file_b)
    (lo_a, hi_a), (lo_b, hi_b) = _span(a), _span(b)
    lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
    if not hi >= lo:
        raise PreconditionError("compare: the two CDF grids do not overlap")
    points = np.concatenate([a[0], b[0], [lo, hi]])  # two step tables add -inf and inf
    grid = np.unique(points[(points >= lo) & (points <= hi)])
    # each side is constant or linear between grid points, so the largest gap
    # lies at a point or at an end of an interval
    va, vb = _on_grid(a, grid), _on_grid(b, grid)
    gaps = [va - vb]
    for end in (0, 1):
        sa, sb = _END_SHIFTS[a[2]][end], _END_SHIFTS[b[2]][end]
        gaps.append(va[sa:sa + len(grid) - 1] - vb[sb:sb + len(grid) - 1])
    distance = np.abs(np.concatenate(gaps)).max()
    return [(args.output, f"ks_distance = {_dec(float(distance))}\n")]


_COMMANDS = ("gen-inventory", "solve-expected", "dist-exact", "var-threshold", "pareto-short",
             "transform", "estimate-cdf", "pareto-long", "simulate", "compare")


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, given its name as ``only``, of that one alone."""
    parser = argparse.ArgumentParser(
        prog="varmdp",
        description="Value-at-Risk solvers for finite-state MDPs.",
        epilog=_SCHEMA_NOTE)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, reads_document: bool = True):
        if only not in (None, name):
            return None
        p = sub.add_parser(name, help=summary)
        if reads_document:
            p.add_argument("document", nargs="?", default="-")
        p.add_argument("-o", "--output", default=None)
        p.set_defaults(func=func)
        return p

    if p := command("gen-inventory", cmd_gen_inventory, "write an inventory MDP document",
                    reads_document=False):
        from . import inventory
        p.add_argument("--preset", default="paper-short", choices=sorted(inventory.PRESETS))
        p.add_argument("--simplify", action="store_true",
                       help="emit the SA (successor-averaged) variant")

    command("solve-expected", cmd_solve_expected,
            "optimal expected total reward and argmax policy")

    if p := command("dist-exact", cmd_dist_exact,
                    "exact total-reward distribution of a policy "
                    "(default: the expected-optimal policy)"):
        p.add_argument("--policy", default=None, help="policy document (JSON)")
        p.add_argument("--budget", type=int, default=200_000,
                       help="refuse beyond this many reachable (state, reward) pairs, "
                            "summed over epochs")

    if p := command("var-threshold", cmd_var_threshold,
                    "best P(total >= tau) and its augmented-state policy"):
        p.add_argument("--tau", required=True)
        p.add_argument("--max-aug-states", type=int, default=200_000)

    if p := command("pareto-short", cmd_pareto_short,
                    "exact CDF Pareto front (threshold backward induction)"):
        p.add_argument("--max-aug-states", type=int, default=200_000)
        p.add_argument("--policies-out", default=None)

    command("transform", cmd_transform,
            "pair-state transformation of a transition-rewarded MRP")

    if p := command("estimate-cdf", cmd_estimate_cdf,
                    "normal-plus-correction CDF estimate of an MRP"):
        p.add_argument("--n-steps", type=int, required=True)
        p.add_argument("--grid", required=True, help="lo:hi:steps")
        p.add_argument("--sidecar", default=None, help="write diagnostics JSON here")

    if p := command("pareto-long", cmd_pareto_long, "estimated front over stationary policies"):
        p.add_argument("--horizon", type=int, required=True)
        p.add_argument("--grid", required=True, help="lo:hi:steps")
        p.add_argument("--max-policies", type=int, default=10_000)
        p.add_argument("--policies-out", default=None)

    if p := command("simulate", cmd_simulate, "seeded trajectory simulation (quantile CSV)"):
        p.add_argument("--n", type=int, default=None, help="epochs (default: horizon)")
        p.add_argument("--samples", type=int, required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--quantiles", type=int, default=1001)

    if p := command("compare", cmd_compare, "max CDF difference between two CSV files",
                    reads_document=False):
        p.add_argument("file_a")
        p.add_argument("file_b")

    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed by its subcommand's parser alone if that takes every argument, else (help,
    a leading flag, no or an unknown name, a stray argument) by the full parser."""
    if argv and argv[0] in _COMMANDS:
        args, extra = build_parser(argv[0]).parse_known_args(argv)
        if not extra:
            return args
    return build_parser().parse_args(argv)


def _report(message: str) -> None:
    """Print ``message`` on stderr, if it can be written: a refusal keeps its exit code."""
    try:
        if sys.stderr is not None:  # None when the process started with it closed
            print(message, file=sys.stderr)
    except OSError:  # a descriptor 2 that cannot be written
        pass


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        for path, text in args.func(args):
            _write_text(path, text)
    except VarMdpError as exc:
        _report(f"error: {exc}")
        return _EXIT_CODES[type(exc)]
    except MemoryError as exc:  # numpy refuses an oversized array before allocating it
        _report(f"error: out of memory: {exc}")
        return EXIT_BUDGET
    return EXIT_OK


def _observed() -> bool:
    """Whether a tracer, profiler or monitoring tool is set, which may report at exit."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or (monitoring is not None and any(map(monitoring.get_tool, range(6)))))


def run() -> None:
    """``main`` as a process: flush its output, then exit without interpreter teardown."""
    gc.disable()
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help and usage errors
        code = exc.code
    if _observed():
        sys.exit(code)
    try:
        if sys.stdout is not None:  # None when the process started with it closed
            sys.stdout.flush()  # holds only argparse's help: main flushes what it writes
    except OSError as exc:
        if code == EXIT_OK:  # otherwise main has refused the failed write already
            _report(f"error: output: cannot write <stdout>: {exc.strerror or exc}")
            code = EXIT_PARSE
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:  # what stderr could not take is lost; the exit code stands
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
