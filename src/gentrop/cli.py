"""Batch command-line front end.

Reads ideal files (a ``ring <n>`` header, then one homogeneous polynomial per
line, ``#`` comments allowed), runs the requested analysis and emits a
canonical JSON report: sorted keys, sorted generator strings, and every
probabilistic knob recorded, so identical inputs and seeds produce
byte-identical output.

The command line is ``gentrop <command> <file> [flags]``.  ``parse_args``
reads it from the tables ``_COMMANDS`` and ``_FLAGS`` without argparse,
which with the gettext and locale modules it loads would cost every job
milliseconds of start-up.  A flag's value is the next token or follows
``=``, and may start with ``-``; flag names match exactly, with no
abbreviations.  Each ``cmd_*`` maps (ideal, policy, arguments) to (exit code,
report fields); ``main`` adds the input hash, the seed and the policy.

Exit codes: 0 success (also for ``-h``/``--help``), 1 failed verification
probe, 2 parse/usage error (``UsageError``: also a bad command line, an
unreadable path, an ideal file that is not UTF-8, an out-of-range flag, and
an ideal the command does not support, such as the zero or unit ideal), 3
non-homogeneous input, 4 genericity failure, 5 degree-cap abort, 6 internal
error (a broken invariant check inside the engine, or any other
``ValueError``).
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .fans import (
    adjacent_pairs,
    cone_orbit_key,
    maximal_cones,
    pair_orbit_key,
    refinement_maximal_cones,
)
from .generic import (
    GenericityFailure,
    GenericityPolicy,
    ProbeResult,
    adjacent_distinct,
    classify_cm,
    constancy_probes,
    depth,
    gin,
    identity_policy,
    per_orbit,
    recover_depth,
    tropical_report,
)
from .groebner import (
    DEFAULT_DEGREE_CAP,
    DegreeCapExceeded,
    Ideal,
    NotGradedError,
)
from .invariants import dimension, multiplicity
from .poly import MAX_DIGITS, ParseError, UsageError, parse_int, parse_polynomial
from .tropmult import intrinsic_multiplicity

EXIT_OK = 0
EXIT_PROBE_FAILED = 1
EXIT_PARSE = 2
EXIT_NOT_GRADED = 3
EXIT_GENERICITY = 4
EXIT_DEGREE_CAP = 5
EXIT_INTERNAL = 6


# an int flag: int() would also take other scripts' digits, "_" and "+"
_INT = re.compile(f"-?[0-9]{{1,{MAX_DIGITS}}}")


def parse_ideal_file(text: str):
    """Parse an ideal file into (n, polynomials).  Raises ParseError."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ParseError("empty ideal file")
    header = lines[0].split()
    if (len(header) != 2 or header[0] != "ring" or not header[1].isascii()
            or not header[1].isdecimal()):
        raise ParseError(f"bad header {lines[0][:20]!r}; expected 'ring <n>'")
    n = parse_int(header[1])
    if n < 1:
        raise ParseError("ring must have at least one variable")
    polys = [parse_polynomial(line, n) for line in lines[1:]]
    if not polys:
        raise ParseError("ideal file lists no polynomials")
    return n, polys


def _parse_omega(text: str, n: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ParseError(f"omega needs {n} comma-separated entries")
    w = []
    for p in parts:
        try:
            if not p.isascii() or "_" in p:
                raise ParseError("only ASCII digits, signs, '/', '.' and 'e'")
            # a bound on the digits Fraction(p) builds, checked before it does
            mantissa, _, exp = p.lower().partition("e")
            if len(mantissa) + abs(int(exp or 0)) > MAX_DIGITS:
                raise ParseError(f"could exceed {MAX_DIGITS} digits")
            w.append(Fraction(p))
        except ValueError as exc:
            # the messages of int() and Fraction() quote the whole entry
            why = exc if isinstance(exc, ParseError) else "not a number"
            raise ParseError(f"bad omega entry: {p[:20]!r}: {why}") from None
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in omega entry {p[:20]!r}") from None
    return tuple(w)


def _policy(args, n: int) -> GenericityPolicy:
    if args.identity:
        # the seed still draws the probed cones of fans above the budget
        return GenericityPolicy(seed=args.seed, transforms=identity_policy(n).transforms)
    return GenericityPolicy(samples=args.samples, bound=args.bound, seed=args.seed)


def _probe_json(p: ProbeResult) -> dict:
    return {
        "kind": p.kind,
        "cone": p.cone.to_json() if p.cone is not None else None,
        "result": p.result,
        "evidence": p.evidence,
        "detail": p.detail,
    }


def _intermediate_depth(I, policy, target: str) -> tuple:
    """(dimension, depth) of I, which the target needs with 0 < depth < dim-1."""
    m = dimension(I)
    t = depth(I, policy)
    if not 0 < t < m - 1:
        raise UsageError(
            f"target {target} needs 0 < depth < dim-1, got depth {t}, dim {m}"
        )
    return m, t


def cmd_analyze(I, policy, args) -> tuple:
    m = dimension(I)
    t = depth(I, policy)
    result = classify_cm(I, policy)
    g = gin(I, policy)
    return EXIT_OK, {
        "dimension": m,
        "depth": t,
        "cm_class": result.label,
        "multiplicity": multiplicity(I),
        "gin": sorted(str(p) for p in g.polynomials()),
        "probes": [_probe_json(p) for p in result.probes],
    }


def cmd_tropical(I, policy, args) -> tuple:
    w = _parse_omega(args.omega, I.n)
    member, J = tropical_report(I, w, policy)
    return EXIT_OK, {
        "omega": [str(x) for x in w],
        "member": member,
        "initial_ideal": sorted(str(p) for p in J.generators),
    }


def _verify_wnm(I, policy, args):
    return list(constancy_probes(I, maximal_cones(I.n, dimension(I)), policy))


def _verify_wnmt(I, policy, args):
    m, t = _intermediate_depth(I, policy, "Wnmt")
    probes = list(constancy_probes(I, refinement_maximal_cones(I.n, m, t), policy))
    pairs = per_orbit(adjacent_pairs(I.n, m, t), pair_orbit_key,
                      lambda pair: adjacent_distinct(I, *pair, policy), policy)
    for (c1, c2), ok in pairs:
        probes.append(
            ProbeResult("adjacent_pair_distinct", c1, ok, "exact", f"versus {c2.to_json()}")
        )
    return probes


def _verify_multiplicity(I, policy, args):
    m = dimension(I)
    t = depth(I, policy)
    cones = refinement_maximal_cones(I.n, m, t) if 0 < t < m - 1 else maximal_cones(I.n, m)
    probes = []
    reports = per_orbit(cones, cone_orbit_key, lambda cone: intrinsic_multiplicity(I, cone, policy),
                        policy)
    for cone, rep in reports:
        detail = (
            f"dim {rep.dim_initial}->{rep.dim_saturated}, "
            f"m_sat {rep.m_saturated}, m_ideal {rep.m_ideal}"
        )
        probes.append(
            ProbeResult("multiplicity_matches", cone, rep.matches, "exact", detail)
        )
    return probes


def _verify_depth_recovery(I, policy, args):
    _, t = _intermediate_depth(I, policy, "depth-recovery")
    r = recover_depth(I, policy)
    return [ProbeResult("depth_recovery", None, r == t, "exact", f"recovered {r}, depth {t}")]


_TARGETS = {
    "Wnm": _verify_wnm,
    "Wnmt": _verify_wnmt,
    "multiplicity": _verify_multiplicity,
    "depth-recovery": _verify_depth_recovery,
}


def cmd_verify(I, policy, args) -> tuple:
    probes = _TARGETS[args.target](I, policy, args)
    passed = all(p.result for p in probes)
    return EXIT_OK if passed else EXIT_PROBE_FAILED, {
        "target": args.target,
        "passed": passed,
        "probes": [_probe_json(p) for p in probes],
    }


_COMMANDS = {
    "analyze": (cmd_analyze, "dimension, depth, CM class, multiplicity, gin"),
    "tropical": (cmd_tropical, "tropical membership of a weight vector (requires --omega)"),
    "verify": (cmd_verify, "fan-structure and multiplicity probes (requires --target)"),
}

# flag -> (attribute, kind of value, default, help); the kind is int, str,
# a tuple of the allowed values, or None for a switch, which takes no value
_FLAGS = {
    "--seed": ("seed", int, 0, "PRNG seed (default 0)"),
    "--bound": ("bound", int, 1000, "transform entry bound (default 1000)"),
    "--samples": ("samples", int, 2, "agreeing transforms required (default 2)"),
    "--points": ("points", int, 3,
                 "unused; kept in policy.points so reports keep their bytes (default 3)"),
    "--degree-cap": ("degree_cap", int, DEFAULT_DEGREE_CAP,
                     f"degree cap of every Groebner run (default {DEFAULT_DEGREE_CAP})"),
    "--identity": ("identity", None, False, "use the identity transform (non-generic)"),
    "--json": ("json", str, None, "also write the report to this path"),
    "--omega": ("omega", str, None, "tropical: comma-separated rational weights"),
    "--target": ("target", tuple(sorted(_TARGETS)), None,
                 f"verify: the probe suite, one of {', '.join(sorted(_TARGETS))}"),
}

# the flag that only its command takes, and that it requires
_OWN_FLAGS = {"tropical": "--omega", "verify": "--target"}

_HELP = ("-h", "--help")


def _usage() -> str:
    """The text of ``gentrop --help``."""
    lines = [
        "usage: gentrop <command> <file> [flags]",
        "",
        "Generic tropical varieties of graded ideals: exact dimension, depth,",
        "Cohen-Macaulay class and multiplicity.",
        "",
        "commands:",
        *(f"  {name:<10}{text}" for name, (_, text) in _COMMANDS.items()),
        "",
        "file: ideal file, 'ring <n>' then one polynomial per line",
        "",
        "flags (--flag value or --flag=value):",
    ]
    for flag, (_, kind, _, text) in _FLAGS.items():
        value = {None: "", int: " N"}.get(kind, " VALUE")
        lines.append(f"  {flag + value:<18}{text}")
    lines.append(f"  {'-h, --help':<18}show this help and exit")
    return "\n".join(lines) + "\n"


def parse_args(argv: list):
    """The arguments of ``gentrop <command> <file> [flags]`` as a namespace
    with one attribute per flag, ``command``, ``file`` and ``func`` (the
    command's ``cmd_*``), or None if argv asks for help.  A flag's value is
    the next token or follows ``=``; it may start with ``-``.  Flag names
    match exactly.  Raises UsageError."""
    if argv and argv[0] in _HELP:
        return None
    if not argv or argv[0] not in _COMMANDS:
        got = repr(argv[0][:20]) if argv else "none"
        raise UsageError(f"expected a command, one of {', '.join(_COMMANDS)}; got {got}")
    command = argv[0]
    values = {attr: default for attr, _, default, _ in _FLAGS.values()}
    own = _OWN_FLAGS.get(command)
    files, given = [], set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            return None
        if not token.startswith("-"):
            files.append(token)
            continue
        flag, eq, value = token.partition("=")
        if flag not in _FLAGS or flag in _OWN_FLAGS.values() and flag != own:
            raise UsageError(f"{command} takes no flag {flag[:20]}")
        attr, kind, _, _ = _FLAGS[flag]
        given.add(flag)
        if kind is None:
            if eq:
                raise UsageError(f"{flag} takes no value")
            values[attr] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"{flag} expects a value")
        if kind is int:
            if not _INT.fullmatch(value):
                raise UsageError(f"{flag} expects an integer, got {value[:20]!r}")
            value = int(value)
        elif kind is not str and value not in kind:
            raise UsageError(f"{flag} must be one of {', '.join(kind)}, got {value[:20]!r}")
        values[attr] = value
    if len(files) != 1:
        raise UsageError(f"{command} takes one file, got {len(files)}")
    if own is not None and own not in given:
        raise UsageError(f"{command} requires {own}")
    return SimpleNamespace(command=command, file=files[0], func=_COMMANDS[command][0], **values)


# the exit code of each failure class, looked up along the exception's MRO;
# an unreadable path (missing, a directory, no permission) is a usage error,
# and any other ValueError is a bug in the engine, not bad input
_EXIT_CODES = {
    UsageError: EXIT_PARSE,
    NotGradedError: EXIT_NOT_GRADED,
    GenericityFailure: EXIT_GENERICITY,
    DegreeCapExceeded: EXIT_DEGREE_CAP,
    RuntimeError: EXIT_INTERNAL,
    OSError: EXIT_PARSE,
    ValueError: EXIT_INTERNAL,
}

# the least value of each numeric flag that the probes can use
_FLAG_MINIMA = {"points": 2, "samples": 2, "bound": 1}


def main(argv=None) -> int:
    """Run one command: read the ideal file, run the command on the ideal
    under the policy of the flags, and write the canonical report."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(_usage())
            return EXIT_OK
        for flag, least in _FLAG_MINIMA.items():
            if getattr(args, flag) < least:
                raise UsageError(f"--{flag} must be at least {least}")
        if args.degree_cap < 1:
            raise UsageError(f"degree cap {args.degree_cap} is below 1")
        with open(args.file, "rb") as fh:
            data = fh.read()
        try:
            n, polys = parse_ideal_file(data.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.file}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
        I = Ideal(n, polys, args.degree_cap)
        code, fields = args.func(I, _policy(args, n), args)
        report = {
            "input_sha256": hashlib.sha256(data).hexdigest(),
            "n": n,
            "seed": args.seed,
            "policy": {
                "samples": args.samples,
                "bound": args.bound,
                "points": args.points,
                "degree_cap": args.degree_cap,
                "identity": bool(args.identity),
            },
            **fields,
        }
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args.json is not None:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text)
        sys.stdout.write(text)
        return code
    except tuple(_EXIT_CODES) as exc:
        code = next(_EXIT_CODES[k] for k in type(exc).__mro__ if k in _EXIT_CODES)
        label = "internal error" if code == EXIT_INTERNAL else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
