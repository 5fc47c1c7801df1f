"""Batch command line: pattern search, colouring evaluation and
certificate suites, all emitting canonical JSON.

Exit codes are part of the machine contract: 0 for found/verified, 1 for
exhausted/counterexample, 2 for inconclusive, 64 for usage errors
(bad flags, malformed input, unmet preconditions), 70 for an internal
error (any other exception; sysexits EX_SOFTWARE).  stdout carries
exactly one JSON document, or nothing on exit 64 or 70; stderr is for
humans.

Each subcommand imports the modules it runs inside its handler, so a
call pays only for those: ``--version`` loads no group arithmetic,
``verify`` no pattern search and ``search`` no oracle and no group arithmetic.
The flags are read from one table per command (``_COMMANDS``) by one
loop rather than by argparse, whose import, with the ``gettext`` and
``locale`` its first message loads, cost every child a few ms of CPU.
The loop keeps argparse's messages, its namespace order and its reading
of ``-1`` as a value, but takes no abbreviations.  Output needs only the
C encoder in ``_json`` (``tokens.canonical_json``); ``_loads`` imports
json for the flags that take JSON input, and no other call does.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from . import __version__
from .tokens import canonical_json

EXIT_FOUND = 0
EXIT_NONE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70

# claim id -> (flags it needs, flags it may also take); besides --out and
# --threads, a claim refuses every other flag rather than ignore it
CLAIM_FLAGS = {
    "lemma3.1": (("dim", "bound"), ("budget",)),
    "thm3.2": (("dim", "bound", "n"), ("budget",)),
    "thm4.1": (("kappa", "max-set"), ("budget",)),
    "thm5.4": (("group",), ()),
    "thm5.5": (("group",), ()),
    "thm5.6": (("a", "dim", "bound"), ()),
    "thm2.3": (("group", "alphas", "beta", "gammas", "colouring"), ()),
    "thm5.1-shadow": (("group", "elements"), ()),
}

_STATUS_EXIT = {
    "found": EXIT_FOUND,
    "verified": EXIT_FOUND,
    "exhausted": EXIT_NONE,
    "counterexample": EXIT_NONE,
    "inconclusive": EXIT_INCONCLUSIVE,
}


def _usage_error(message: str, prog: str = "pattern-forge"):
    """Exit 64 with argparse's form of the message, on stderr alone."""
    print(f"{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _emit(args, result: dict, nodes: int) -> None:
    # the file goes first: if writing it fails, stdout stays empty
    if getattr(args, "out", None):
        manifest = {
            "command": args.command,
            # threads is run-only: leaving it out keeps equal results
            # in byte-equal files
            "config": {k: v for k, v in vars(args).items()
                       if k not in ("command", "threads") and v is not None},
            "version": __version__,
            "inputs": [],
            "outputs": [args.out],
            "nodes": nodes,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json({"manifest": manifest, "result": result}))
            fh.write("\n")
    print(canonical_json(result))


def _loads(text: str):
    """Parse a flag's JSON input."""
    import json
    return json.loads(text)


def _parse_group(text: str):
    from .groups import GroupSpec
    try:
        return GroupSpec.from_jsonable(_loads(text))
    except (ValueError, KeyError) as exc:
        _usage_error(f"bad --group JSON: {exc}")


# ---------------------------------------------------------------------------
# search


def cmd_search(args) -> int:
    from .patterns import SearchConfig, search
    if args.m == 0 and args.entry_bound is None:
        _usage_error("--entry-bound is required when --m 0")
    if args.m != 0 and args.entry_bound is not None:
        _usage_error("--entry-bound only applies when --m 0")
    try:
        cfg = SearchConfig(n=args.n, m=args.m, l_max=args.l_max,
                           l_min=args.l_min, entry_bound=args.entry_bound,
                           node_cap=args.node_cap)
    except ValueError as exc:
        _usage_error(str(exc))
    outcome = search(cfg)
    _emit(args, outcome.jsonable(), outcome.nodes)
    return _STATUS_EXIT[outcome.status]


# ---------------------------------------------------------------------------
# verify


def _verify_fs(args, colouring_id: str, domain, n: int):
    """The finite-sums oracle, refusing a region that holds no n-subsets:
    its "verified" would be vacuous."""
    from .groups import PreconditionError
    from .verify import find_monochromatic_fs
    size = domain.size()
    if n > size:
        raise PreconditionError(
            f"n = {n} exceeds the {size} points of the domain")
    return find_monochromatic_fs(colouring_id, domain, n,
                                 budget=args.budget, claim=args.claim)


def _verify_norms(args):
    """The lemma3.1 oracle, refusing a box in which no nonzero-norm class
    holds three vectors: its "verified" would be vacuous.  In dimension 1
    every such class is {a, -a}; from dimension 2 on, the unit vectors
    +-e_i share norm 1 whenever bound >= 1."""
    from .groups import PreconditionError
    from .verify import no_seven_norms
    if args.dim < 2 or args.bound < 1:
        raise PreconditionError(
            f"the box of bound {args.bound} in dimension {args.dim} has no "
            f"three vectors of one nonzero norm")
    return no_seven_norms(args.dim, args.bound, budget=args.budget)


def cmd_verify(args) -> int:
    from .colourings import resolve_colouring
    from .groups import GroupSpec, element_from_jsonable
    from .verify import (BranchSetDomain, GroupDomain,
                         check_fs_matrix_identities, check_region,
                         find_monochromatic_ap, find_monochromatic_span,
                         find_monochromatic_subgroup, fs_support_growth_check)
    claim = args.claim
    if claim not in CLAIM_FLAGS:
        _usage_error(f"unknown claim id {claim!r}")
    needs, takes = CLAIM_FLAGS[claim]
    for key, value in vars(args).items():
        name = key.replace("_", "-")
        if name in needs and value is None:
            _usage_error(f"--claim {claim} requires --{name}")
        if (value is not None and name not in needs + takes
                and name not in ("command", "claim", "out", "threads")):
            _usage_error(f"--claim {claim} does not take --{name}")
    if claim == "lemma3.1":
        cert = _verify_norms(args)
    elif claim == "thm3.2":
        # the box is checked before its dim factors are built
        check_region(2 * args.bound + 1, args.dim)
        domain = GroupDomain(GroupSpec.integer_box(args.bound, args.dim))
        cert = _verify_fs(args, "sum_squares", domain, args.n)
    elif claim == "thm4.1":
        domain = BranchSetDomain(args.kappa, args.max_set)
        cert = _verify_fs(args, "delta", domain, 2)
    elif claim == "thm5.4":
        cert = find_monochromatic_ap("product_sigma", _parse_group(args.group))
    elif claim == "thm5.5":
        cert = find_monochromatic_subgroup(
            "subgroup_parity", _parse_group(args.group))
    elif claim == "thm5.6":
        cert = find_monochromatic_span(args.a, args.dim, args.bound)
    elif claim == "thm2.3":
        spec = _parse_group(args.group)
        alphas = [int(s) for s in args.alphas.split(",")]
        gammas = [int(s) for s in args.gammas.split(",")]
        cert = check_fs_matrix_identities(
            spec, alphas, args.beta, gammas, resolve_colouring(args.colouring))
    else:  # thm5.1-shadow
        spec = _parse_group(args.group)
        elements = _loads(args.elements)
        if not isinstance(elements, list):
            raise ValueError("--elements must be a JSON list of elements, "
                             "each a list of coordinates")
        xs = [element_from_jsonable(spec, e) for e in elements]
        cert = fs_support_growth_check(spec, xs)
    _emit(args, cert.jsonable(), cert.enumerated)
    return _STATUS_EXIT[cert.status]


# ---------------------------------------------------------------------------
# colour


def cmd_colour(args) -> int:
    from .colourings import BranchSet, delta_colouring, resolve_colouring
    from .groups import GroupSpec, element_from_jsonable
    if args.id == "delta":
        if args.branches is None:
            _usage_error("--id delta requires --branches")
        strings = _loads(args.branches)
        if not isinstance(strings, list):
            _usage_error("--branches must be a JSON list of 0/1 strings")
        x = BranchSet.from_strings(strings)
        token = delta_colouring(x)
    else:
        if args.element is None:
            _usage_error(f"--id {args.id} requires --element")
        try:
            colour = resolve_colouring(args.id)
        except ValueError as exc:
            _usage_error(str(exc))
        raw = _loads(args.element)
        if args.group:
            spec = _parse_group(args.group)
        else:
            if args.id not in ("sum_squares",) and not args.id.startswith(
                    "valuation:"):
                _usage_error(f"--id {args.id} needs --group for its factors")
            if not (isinstance(raw, list) and raw
                    and all(isinstance(v, int) for v in raw)):
                _usage_error("--element must be a nonempty integer vector "
                             "when --group is omitted")
            bound = max(1, max(abs(v) for v in raw))
            spec = GroupSpec.integer_box(bound, len(raw))
        x = element_from_jsonable(spec, raw)
        token = colour(x)
    _emit(args, token.jsonable(), 0)
    return 0


# ---------------------------------------------------------------------------
# wiring


# command -> (help line, flag -> converter, required flags, defaults).  The
# flags are in the order argparse set them on its namespace, which an
# --out manifest's config keeps
_COMMANDS = {
    "search": ("exhaustive adequate-pattern search",
               {"--n": int, "--m": int, "--l-max": int, "--l-min": int,
                "--entry-bound": int, "--threads": int, "--node-cap": int,
                "--out": str},
               ("--n", "--m", "--l-max"), {"--l-min": 1}),
    "verify": ("run a certificate oracle",
               {"--claim": str, "--dim": int, "--bound": int, "--n": int,
                "--kappa": int, "--max-set": int, "--a": int, "--group": str,
                "--elements": str, "--alphas": str, "--beta": int,
                "--gammas": str, "--colouring": str, "--budget": int,
                "--threads": int, "--out": str},
               ("--claim",), {}),
    "colour": ("evaluate one colouring",
               {"--id": str, "--element": str, "--branches": str,
                "--group": str, "--out": str},
               ("--id",), {}),
}


def _is_value(token: str, flags) -> bool:
    """Whether token can be a flag's value.  As in argparse, it cannot be
    a known flag (alone or as --flag=...), nor start with "-" unless it
    is "-", a negative number or holds a space."""
    if token.partition("=")[0] in flags:
        return False
    head, dot, tail = token[1:].partition(".")
    number = (tail.isdecimal() and (not head or head.isdecimal()) if dot
              else head.isdecimal())
    return token[:1] != "-" or token == "-" or number or " " in token


def _help(command=None) -> str:
    if command is None:
        return "\n".join([
            f"usage: pattern-forge [-h] [--version] "
            f"{{{','.join(_COMMANDS)}}} ...", "",
            "finite-sum pattern search and colouring certificates", "",
            *(f"  {name:8}{spec[0]}" for name, spec in _COMMANDS.items())])
    text, flags, required, defaults = _COMMANDS[command]
    lines = [f"usage: pattern-forge {command} [-h] --flag VALUE ...", "",
             text, "", "flags, each as --flag VALUE or --flag=VALUE:"]
    for flag, convert in flags.items():
        note = ("required" if flag in required else
                f"default {defaults[flag]}" if flag in defaults else "")
        lines.append(f"  {flag} {convert.__name__.upper()}".ljust(22)
                     + note)
    return "\n".join(line.rstrip() for line in lines)


def _answer(token: str, text: str, prog: str):
    """Print the text of --help or --version and exit 0, or refuse a
    value given to either, as argparse did."""
    flag, eq, value = token.partition("=")
    if eq:
        name = "--version" if flag == "--version" else "-h/--help"
        _usage_error(f"argument {name}: ignored explicit argument {value!r}",
                     prog)
    print(text, flush=True)
    raise SystemExit(0)


def _parse(argv) -> SimpleNamespace:
    """Read argv as argparse did: errors in argv's order, then missing
    flags, then unknown arguments; --help and --version exit 0 where
    they stand.  A repeated flag keeps its last value."""
    extras = []
    tokens = iter(argv)
    for token in tokens:
        if token.partition("=")[0] in ("-h", "--help", "--version"):
            _answer(token, __version__ if token == "--version" else _help(),
                    "pattern-forge")
        if _is_value(token, ()) or token == "--":
            break
        extras.append(token)
    else:
        _usage_error("the following arguments are required: command")
    if token not in _COMMANDS:
        _usage_error(f"argument command: invalid choice: {token!r} (choose "
                     f"from {', '.join(map(repr, _COMMANDS))})")
    command, prog = token, f"pattern-forge {token}"
    _, flags, required, defaults = _COMMANDS[command]
    given = dict(defaults)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag in ("-h", "--help"):
            _answer(token, _help(command), prog)
        if token == "--":
            # argparse read the rest as operands, which no command takes
            extras += [token, *tokens]
            break
        if flag not in flags:
            extras.append(token)
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or not _is_value(value, flags):
                _usage_error(f"argument {flag}: expected one argument", prog)
        try:
            given[flag] = flags[flag](value)
        except ValueError:
            _usage_error(f"argument {flag}: invalid "
                         f"{flags[flag].__name__} value: {value!r}", prog)
    missing = [flag for flag in required if flag not in given]
    if missing:
        _usage_error("the following arguments are required: "
                     + ", ".join(missing), prog)
    if extras:
        _usage_error("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(command=command, **{
        flag[2:].replace("-", "_"): given.get(flag) for flag in flags})


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    # everything runs on one thread, so --threads is checked and dropped
    if getattr(args, "threads", None) is not None and args.threads < 1:
        _usage_error("--threads must be >= 1")
    handlers = {"search": cmd_search, "verify": cmd_verify,
                "colour": cmd_colour}
    try:
        return handlers[args.command](args)
    except (ValueError, KeyError) as exc:
        print(f"pattern-forge: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # an unbuffered stdout whose reader closed: run() reports it
        raise
    except Exception:
        # a crash must not exit with a result code
        import traceback
        traceback.print_exc()
        return EXIT_SOFTWARE


def run() -> int:
    """The process entry: `main()` on sys.argv, then `gc.freeze()`, also
    when `main()` raises SystemExit.  The collections interpreter
    shutdown runs then skip every object alive, which the OS reclaims at
    exit anyway.  `main()` itself leaves the collector alone, since
    tests and scripts call it in process.

    stdout is flushed here, so that a reader that closed early exits 70
    whether stdout is buffered or not, rather than with the run's code
    and then Python's 120 from a failed flush at exit."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the unwritten bytes go to devnull, where exit can flush them
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("pattern-forge: stdout closed before the result was written",
              file=sys.stderr)
        code = EXIT_SOFTWARE
    finally:
        gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
