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
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

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


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags, which collides with "inconclusive"
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    # argparse drops an OSError here, so --version or --help would exit
    # 0 into a closed stdout; raised, it makes run() exit 70
    def _print_message(self, message, file=None):
        if file is not sys.stdout:
            return super()._print_message(message, file)
        print(message, end="", file=file, flush=True)


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


def _parse_group(parser, text: str):
    from .groups import GroupSpec
    try:
        return GroupSpec.from_jsonable(json.loads(text))
    except (ValueError, KeyError) as exc:
        parser.error(f"bad --group JSON: {exc}")


# ---------------------------------------------------------------------------
# search


def cmd_search(parser, args) -> int:
    from .patterns import SearchConfig, search
    if args.m == 0 and args.entry_bound is None:
        parser.error("--entry-bound is required when --m 0")
    if args.m != 0 and args.entry_bound is not None:
        parser.error("--entry-bound only applies when --m 0")
    try:
        cfg = SearchConfig(n=args.n, m=args.m, l_max=args.l_max,
                           l_min=args.l_min, entry_bound=args.entry_bound,
                           node_cap=args.node_cap)
    except ValueError as exc:
        parser.error(str(exc))
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


def cmd_verify(parser, args) -> int:
    from .colourings import resolve_colouring
    from .groups import GroupSpec, element_from_jsonable
    from .verify import (BranchSetDomain, GroupDomain,
                         check_fs_matrix_identities, check_region,
                         find_monochromatic_ap, find_monochromatic_span,
                         find_monochromatic_subgroup, fs_support_growth_check)
    claim = args.claim
    if claim not in CLAIM_FLAGS:
        parser.error(f"unknown claim id {claim!r}")
    needs, takes = CLAIM_FLAGS[claim]
    for key, value in vars(args).items():
        name = key.replace("_", "-")
        if name in needs and value is None:
            parser.error(f"--claim {claim} requires --{name}")
        if (value is not None and name not in needs + takes
                and name not in ("command", "claim", "out", "threads")):
            parser.error(f"--claim {claim} does not take --{name}")
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
        cert = find_monochromatic_ap("product_sigma",
                                     _parse_group(parser, args.group))
    elif claim == "thm5.5":
        cert = find_monochromatic_subgroup(
            "subgroup_parity", _parse_group(parser, args.group))
    elif claim == "thm5.6":
        cert = find_monochromatic_span(args.a, args.dim, args.bound)
    elif claim == "thm2.3":
        spec = _parse_group(parser, args.group)
        alphas = [int(s) for s in args.alphas.split(",")]
        gammas = [int(s) for s in args.gammas.split(",")]
        cert = check_fs_matrix_identities(
            spec, alphas, args.beta, gammas, resolve_colouring(args.colouring))
    else:  # thm5.1-shadow
        spec = _parse_group(parser, args.group)
        elements = json.loads(args.elements)
        if not isinstance(elements, list):
            raise ValueError("--elements must be a JSON list of elements, "
                             "each a list of coordinates")
        xs = [element_from_jsonable(spec, e) for e in elements]
        cert = fs_support_growth_check(spec, xs)
    _emit(args, cert.jsonable(), cert.enumerated)
    return _STATUS_EXIT[cert.status]


# ---------------------------------------------------------------------------
# colour


def cmd_colour(parser, args) -> int:
    from .colourings import BranchSet, delta_colouring, resolve_colouring
    from .groups import GroupSpec, element_from_jsonable
    if args.id == "delta":
        if args.branches is None:
            parser.error("--id delta requires --branches")
        strings = json.loads(args.branches)
        if not isinstance(strings, list):
            parser.error("--branches must be a JSON list of 0/1 strings")
        x = BranchSet.from_strings(strings)
        token = delta_colouring(x)
    else:
        if args.element is None:
            parser.error(f"--id {args.id} requires --element")
        try:
            colour = resolve_colouring(args.id)
        except ValueError as exc:
            parser.error(str(exc))
        raw = json.loads(args.element)
        if args.group:
            spec = _parse_group(parser, args.group)
        else:
            if args.id not in ("sum_squares",) and not args.id.startswith(
                    "valuation:"):
                parser.error(f"--id {args.id} needs --group for its factors")
            if not (isinstance(raw, list) and raw
                    and all(isinstance(v, int) for v in raw)):
                parser.error("--element must be a nonempty integer vector "
                             "when --group is omitted")
            bound = max(1, max(abs(v) for v in raw))
            spec = GroupSpec.integer_box(bound, len(raw))
        x = element_from_jsonable(spec, raw)
        token = colour(x)
    _emit(args, token.jsonable(), 0)
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="pattern-forge",
                     description="finite-sum pattern search and "
                                 "colouring certificates")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="exhaustive adequate-pattern search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l-max", type=int, required=True)
    p.add_argument("--l-min", type=int, default=1)
    p.add_argument("--entry-bound", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--node-cap", type=int)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run a certificate oracle")
    p.add_argument("--claim", required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--bound", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--kappa", type=int)
    p.add_argument("--max-set", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--group")
    p.add_argument("--elements")
    p.add_argument("--alphas")
    p.add_argument("--beta", type=int)
    p.add_argument("--gammas")
    p.add_argument("--colouring")
    p.add_argument("--budget", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--out")

    p = sub.add_parser("colour", help="evaluate one colouring")
    p.add_argument("--id", required=True)
    p.add_argument("--element")
    p.add_argument("--branches")
    p.add_argument("--group")
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # everything runs on one thread, so --threads is checked and dropped
    if getattr(args, "threads", None) is not None and args.threads < 1:
        parser.error("--threads must be >= 1")
    handlers = {"search": cmd_search, "verify": cmd_verify,
                "colour": cmd_colour}
    try:
        return handlers[args.command](parser, args)
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
