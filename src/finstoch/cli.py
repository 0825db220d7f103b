"""Batch command line over the JSON document formats.

Every subcommand reads files, runs checks, and prints one line per
check: ``PASS <name>`` or ``FAIL <name>``, with ``residual=<value>``
appended for numeric checks (three significant digits).  The exit code
is 0 when every line is PASS, 1 when some check failed, and 2 when an
input could not be read or parsed.

The library returns residuals, and each handler compares them with its
check's tolerance: 1e-9, except 1e-12 for the two ``noise-outsource``
lines and ``cs-antecedent``, and 1e-6 for ``cs-as-equal``, which is
also the support threshold ``check-cs`` passes to ``cs_check``.
Setting the environment variable ``FINSTOCH_ATOL`` overrides every one
of these; it must be a finite non-negative number, or the command exits
2.  Input kernels, states and specs must be stochastic within 1e-9, or
within ``FINSTOCH_ATOL`` if that is stricter: a larger value loosens
verdicts, never what input is accepted.  States, contractions,
deterministic kernels and the noise-outsource check's cell table are
capped at 2**20 entries, contractions also at 52 wires; larger inputs exit 2.

Each subcommand imports the modules it runs when it runs: ``replay``
and ``validate-model`` load no numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from typing import Any, Callable, Sequence

from .errors import DEFAULT_ATOL, FinstochError, InvalidModel, ShapeMismatch

# One reported check: pass/fail, display name, optional residual.
CheckLine = tuple[bool, str, "float | None"]

_GRID_ARG_RE = re.compile(r"[0-9]+(x[0-9]+)?")  # N or MxN, ASCII digits only


def _atol(default: float = DEFAULT_ATOL) -> float:
    """FINSTOCH_ATOL if set, else the check's default tolerance."""
    raw = os.environ.get("FINSTOCH_ATOL")
    if raw is None:
        return default
    try:
        atol = float(raw)
    except ValueError:
        atol = math.nan
    if not 0 <= atol < math.inf:
        raise ShapeMismatch(f"FINSTOCH_ATOL={raw!r} is not a finite non-negative number")
    return atol


def _load_atol() -> float:
    """Tolerance input kernels are validated at: 1e-9 or a stricter FINSTOCH_ATOL."""
    return min(_atol(), DEFAULT_ATOL)


@contextmanager
def _blame(path: str):
    """Prefix path to the message of a FinstochError raised in the block; its type stays."""
    try:
        yield
    except FinstochError as e:
        e.args = (f"{path}: {e}",)
        raise


def _read(path: str, loader: Callable, *args) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise FinstochError(f"{path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise FinstochError(f"{path}: not valid JSON ({e})") from e
    with _blame(path):
        return loader(doc, *args)


def _write_json(path: str, doc: Any) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError as e:
        raise FinstochError(f"{path}: {e.strerror or e}") from e


def _wire_list(raw: str, flag: str) -> list[str]:
    """Split a comma-separated wire list; commas inside brackets bind tighter.

    This keeps grid names such as ``S[1,2]`` intact, so
    ``--x S[1,1],S[1,2]`` names two wires.  A list that names one wire
    twice is an input error naming the flag.
    """
    items: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in raw:
        if ch == "," and depth == 0:
            items.append("".join(cur).strip())
            cur = []
            continue
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth = max(0, depth - 1)
        cur.append(ch)
    items.append("".join(cur).strip())
    items = [s for s in items if s]
    if not items:
        raise ShapeMismatch(f"{flag} names no wires")
    for i, w in enumerate(items):
        if w in items[:i]:
            raise ShapeMismatch(f"{flag} names {w!r} twice")
    return items


def _fmt_groups(x, y, given) -> str:
    def fmt(group) -> str:
        return ",".join(sorted(group))

    tail = f"|{fmt(given)}" if given else ""
    return f"{fmt(x)}⊥{fmt(y)}{tail}"


def _emit(lines: Sequence[CheckLine]) -> int:
    if not lines:
        print("PASS (0 checks)")
        return 0
    code = 0
    for ok, name, residual in lines:
        tail = "" if residual is None else f" residual={residual:.3g}"
        print(f"{'PASS' if ok else 'FAIL'} {name}{tail}")
        if not ok:
            code = 1
    return code


def _cmd_validate_model(args) -> list[CheckLine]:
    from .serialization import model_from_json

    try:
        _read(args.model, model_from_json)
    except InvalidModel as e:
        return [(False, f"model-valid {v}", None) for v in e.violations]
    return [(True, "model-valid", None)]


def _cmd_check_ci(args) -> list[CheckLine]:
    from .ci import ci_residual
    from .serialization import state_from_json

    atol = _atol()
    p = _read(args.state, state_from_json, _load_atol())
    x = _wire_list(args.x, "--x")
    y = _wire_list(args.y, "--y")
    given = _wire_list(args.given, "--given") if args.given else []
    named: dict[str, str] = {}
    for flag, wires in (("--x", x), ("--y", y), ("--given", given)):
        for w in wires:
            if named.setdefault(w, flag) != flag:
                raise ShapeMismatch(f"{named[w]} and {flag} both name {w!r}")
    with _blame(args.state):
        r = ci_residual(p, x, y, given)
    return [(r <= atol, f"ci {_fmt_groups(x, y, given)}", r)]


def _load_state_and_model(args):
    from .models import validate_timing
    from .serialization import model_from_json, state_from_json, timing_from_json

    p = _read(args.state, state_from_json, _load_atol())
    m = _read(args.model, model_from_json)
    if set(p.wire_names) != set(m.wires):
        raise FinstochError(
            f"{args.state}: state wires do not match the wires of {args.model}: "
            f"{sorted(set(p.wire_names) ^ set(m.wires))}"
        )
    t = None
    if getattr(args, "timing", None):
        t = _read(args.timing, timing_from_json)
        with _blame(args.timing):
            validate_timing(m, t)
    return p, m, t


def _cmd_check_markov(args) -> list[CheckLine]:
    from .markov import compatibility_residual, markov_residuals

    atol = _atol()
    p, m, t = _load_state_and_model(args)
    with _blame(args.state):
        residuals = (*markov_residuals(p, m, t), compatibility_residual(p, m, t))
    names = ("local-markov", "ordered-markov", "compatible")
    return [(r <= atol, name, r) for name, r in zip(names, residuals)]


def _cmd_factorize(args) -> list[CheckLine]:
    from .markov import factorize, recomposition_residual
    from .serialization import assignment_to_json

    atol = _atol()
    p, m, t = _load_state_and_model(args)
    with _blame(args.state):
        asg = factorize(p, m, t)
        r = recomposition_residual(p, m, asg)
    _write_json(args.output, assignment_to_json(asg))
    return [(r <= atol, "factorize-recompose", r)]


def _cmd_build_ah(args) -> list[CheckLine]:
    from .exchange import build_ah_joint
    from .serialization import ahspec_from_json, state_to_json

    spec = _read(args.spec, ahspec_from_json, _load_atol())
    with _blame(args.spec):
        p = build_ah_joint(spec, expose_latents=args.expose_latents)
    _write_json(args.output, state_to_json(p))
    return [(True, f"build-ah {len(p.wire_names)} wires", None)]


def _cmd_verify_ah(args) -> list[CheckLine]:
    from .exchange import verify_ah_lemmas
    from .serialization import ahspec_from_json

    atol = _atol()
    spec = _read(args.spec, ahspec_from_json, _load_atol())
    with _blame(args.spec):
        r1, r2, r3 = verify_ah_lemmas(spec).residuals
    return [
        (r1 <= atol, "ah-entries-given-tails", r1),
        (r2 <= atol, "ah-entry-vs-unrelated", r2),
        (r3 <= atol, "ah-tails-given-latent", r3),
    ]


def _cmd_check_exchangeable(args) -> list[CheckLine]:
    from .exchange import decode_names, invariance_residual
    from .serialization import state_from_json

    atol = _atol()
    want = None
    if args.grid:
        if not _GRID_ARG_RE.fullmatch(args.grid):
            raise ShapeMismatch(f"--grid {args.grid!r} is not MxN or N")
        want = tuple(map(int, args.grid.split("x")))
    p = _read(args.state, state_from_json, _load_atol())
    lines: list[CheckLine] = []
    with _blame(args.state):
        naming = decode_names(p.wire_names)
        if want and naming.shape != want:
            shape = "x".join(map(str, naming.shape))
            raise ShapeMismatch(
                f"--grid {args.grid!r} does not match the {shape} {naming.kind} of wire names"
            )
        for sigma in naming.transpositions():
            k = next(i for i in range(1, len(sigma.perm) + 1) if sigma(i) != i)
            r = invariance_residual(p, [sigma])
            lines.append((r <= atol, f"exchange {sigma.target}-swap({k},{k + 1})", r))
    return lines


def _resolve_script(path: str) -> str:
    """Fall back to the bundled scripts when the literal path is absent."""
    from importlib import resources

    if os.path.exists(path):
        return path
    bundled = resources.files(__package__) / "scripts" / os.path.basename(path)
    if bundled.is_file():
        return str(bundled)
    raise FinstochError(f"{path}: no such file and no bundled script of that name")


def _cmd_replay(args) -> list[CheckLine]:
    from .semigraphoid import validate_derivation
    from .serialization import derivation_from_json

    d = _read(_resolve_script(args.derivation), derivation_from_json)
    report = validate_derivation(d)
    lines: list[CheckLine] = []
    for k, step in enumerate(d.steps):
        c = step.conclusion
        ok = report.ok or k < report.failed_step
        name = f"step[{k}] {step.rule} {_fmt_groups(c.left, c.right, c.given)}"
        lines.append((ok, name, None))
        if not ok:
            break
    return lines


def _cmd_noise_outsource(args) -> list[CheckLine]:
    from .quantiles import _outsourced, outsourced_residual, pushforward_residual, quantile_pushback
    from .serialization import kernel_from_json, kernel_to_json, quantile_to_json

    atol = _atol(1e-12)
    f = _read(args.kernel, kernel_from_json, _load_atol())
    if len(f.cod) != 1:
        raise FinstochError(f"{args.kernel}: a single codomain factor is required")
    order = (
        _wire_list(args.order, "--order") if args.order else list(f.cod[0].elements)
    )
    with _blame(args.kernel):
        qf = quantile_pushback(f, order)
        if args.output:  # first, so that a map past the entry cap exits before the check
            seed, mech = _outsourced(qf)
            kernel_from_json(kernel_to_json(seed), _load_atol(), "seed")  # write only what loads
        r1, r2 = pushforward_residual(qf, f), outsourced_residual(qf, f)
    if args.output:
        _write_json(
            args.output,
            {
                "quantile": quantile_to_json(qf),
                "seed": kernel_to_json(seed),
                "mechanism": kernel_to_json(mech),
            },
        )
    return [
        (r1 <= atol, "quantile-pushforward", r1),
        (r2 <= atol, "seed-mechanism-composite", r2),
    ]


def _cmd_check_cs(args) -> list[CheckLine]:
    from .kernels import ANTECEDENT_ATOL, CONSEQUENT_ATOL, cs_check
    from .serialization import kernel_from_json

    paths = (args.p, args.f, args.g)
    ante_atol, cons_atol = _atol(ANTECEDENT_ATOL), _atol(CONSEQUENT_ATOL)
    p, f, g = (_read(a, kernel_from_json, _load_atol()) for a in paths)
    with _blame(", ".join(paths)):
        report = cs_check(p, f, g, cons_atol)
    ante, cons = report.antecedent_residual, report.consequent_residual
    return [
        (ante <= ante_atol, "cs-antecedent", ante),
        (cons <= cons_atol, "cs-as-equal", cons),
    ]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="finstoch",
        description=(
            "Checks on finite stochastic kernels: model validation, "
            "conditional independence, Markov properties, factorization, "
            "latent grid constructions, derivation replay, and noise "
            "outsourcing."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate-model", help="structural rules of a model file")
    s.add_argument("model")
    s.set_defaults(handler=_cmd_validate_model)

    s = sub.add_parser("check-ci", help="conditional independence on a state")
    s.add_argument("state")
    s.add_argument("--x", required=True, help="comma-separated wires")
    s.add_argument("--y", required=True, help="comma-separated wires")
    s.add_argument("--given", default="", help="comma-separated wires")
    s.set_defaults(handler=_cmd_check_ci)

    s = sub.add_parser(
        "check-markov",
        help="Markov properties of a state with respect to a model",
    )
    s.add_argument("state")
    s.add_argument("model")
    s.add_argument("--timing", help="JSON file of box stages")
    s.set_defaults(handler=_cmd_check_markov)

    s = sub.add_parser("factorize", help="read box kernels off a state")
    s.add_argument("state")
    s.add_argument("model")
    s.add_argument("--timing", help="JSON file of box stages")
    s.add_argument("-o", "--output", required=True, help="assignment JSON to write")
    s.set_defaults(handler=_cmd_factorize)

    s = sub.add_parser("build-ah", help="joint state of the latent grid construction")
    s.add_argument("spec")
    s.add_argument(
        "--expose-latents",
        action="store_true",
        help="keep the shared latent and the row/column tails as wires",
    )
    s.add_argument("-o", "--output", required=True, help="state JSON to write")
    s.set_defaults(handler=_cmd_build_ah)

    s = sub.add_parser(
        "verify-ah", help="independence facts of the latent grid construction"
    )
    s.add_argument("spec")
    s.set_defaults(handler=_cmd_verify_ah)

    s = sub.add_parser(
        "check-exchangeable",
        help="permutation invariance of a state with indexed wire names",
    )
    s.add_argument("state")
    s.add_argument("--grid", help="expected shape MxN (or N for sequences), in ASCII digits")
    s.set_defaults(handler=_cmd_check_exchangeable)

    s = sub.add_parser("replay", help="validate a derivation step by step")
    s.add_argument("derivation")
    s.set_defaults(handler=_cmd_replay)

    s = sub.add_parser(
        "noise-outsource",
        help="represent a kernel as a uniform seed plus a deterministic map",
    )
    s.add_argument("kernel")
    s.add_argument("--order", help="total order of the output values")
    s.add_argument("-o", "--output", help="JSON file for quantile, seed, mechanism")
    s.set_defaults(handler=_cmd_noise_outsource)

    s = sub.add_parser(
        "check-cs",
        help="equal pairings against a state force almost-sure equality",
    )
    s.add_argument("p")
    s.add_argument("f")
    s.add_argument("g")
    s.set_defaults(handler=_cmd_check_cs)

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _emit(args.handler(args))
    except (FinstochError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # an input no check anticipated must still not read as a failed check
        print(f"error: unexpected {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
