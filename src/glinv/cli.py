"""Command line interface.

One verb per invocation; every output is deterministic, so identical
invocations produce byte-identical results. JSON output is sorted, pretty
output draws Young diagrams and small grids, and csv is available for the
tabular verbs (zset, lc, betti, qbinom).

The verbs, their arguments and handlers are one table, VERBS. A plain call,
a verb (after an optional 'ideal') whose arguments are all options and
valid option-value words, is read straight from that verb's entry, without
argparse; every other call goes to the full argparse parser, which writes
the help texts and usage errors. That parser is built once per process,
on its first use, and reused by later calls of main.

Exit codes: 0 success, 1 domain error (reported as a JSON object on stdout
under --format json, otherwise on stderr) or stdout closed by its reader
(nothing reported), 2 usage error.
"""

from __future__ import annotations

import json
import os
import sys
from functools import cache
from types import SimpleNamespace
from typing import Iterable

from .betti import _betti_terms, _block_terms, betti_polynomial, betti_table
from .homology import (
    DegreeWindow,
    _ext_terms,
    _zset_walk,
    regularity,
    zset,
)
from .ideals import (
    InvariantIdeal,
    MatrixContext,
    ideal_leq,
    make_ideal,
    power_of_minors,
    saturate,
    saturated_power,
    symbolic_power,
)
from .loccoh import _ds_terms, _ds_weight_count, _lc_table_updates, lc_table
from .partitions import _integer, _qbinomial_updates, dominant_weight, pad_weight, qbinomial, size
from .schur import EquivariantCharacter, _dim_schur, _dim_schur_factors


class UsageError(Exception):
    """Bad argument combination not expressible through argparse alone."""


def main(argv: list[str] | None = None) -> int:
    """Run one verb and return the exit status."""
    return quiet_on_broken_pipe(_run, argv)


def quiet_on_broken_pipe(entry, *args) -> int:
    """Return entry(*args); if the reader of stdout has gone, return 1 silently.

    This is the idiom of the Python documentation (signal module, note on
    SIGPIPE): stdout is pointed at os.devnull, so the flush at interpreter
    exit does not raise again.
    """
    try:
        status = entry(*args)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def _run(argv: list[str] | None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "ideal":
        argv = argv[1:]
    args = _parse_args(argv)
    try:
        handler = args.handler
    except AttributeError:
        _build_parser().print_help()
        return 2
    try:
        return handler(args) or 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        if getattr(args, "format", "pretty") == "json":
            print(json.dumps({"error": str(exc)}, sort_keys=True))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


def _parse_args(argv: list[str]) -> SimpleNamespace | argparse.Namespace:
    """The namespace of argv, as the full parser's parse_args gives it: read
    by _plain_args when argv is a plain verb call, and otherwise parsed by
    the full parser, which writes every help text and usage error and exits
    with argparse's status."""
    args = _plain_args(argv)
    return _build_parser().parse_args(argv) if args is None else args


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of a plain verb call, read from the verb's VERBS entry
    with no parser object; None for any other argv.

    A plain call names a verb whose arguments are all options (not qbinom),
    then gives words that are each "option value", the value not starting
    with "-", or "--long=value", split at the first "=". Each option is
    exactly one of the verb's flags or --format, each value converts by its
    type and lies in its choices, and every required option is given; a
    repeated option keeps its last value. The namespace is then the one
    parse_args returns: every dest of the verb (from dest=, else the first
    long flag, else the first short one) with its value or declared default
    (None when it declares none), format, handler and verb. Anything else,
    help, abbreviations, attached short values, "--", a value that starts
    with "-", a bad value or a missing option, is left to the full parser."""
    table = _option_table(argv[0]) if argv and argv[0] in VERBS else None
    if table is None:
        return None
    options, defaults, required = table
    values = dict(defaults)
    given = set()
    words = iter(argv[1:])
    for word in words:
        flag, equals, value = word.partition("=")
        if not (equals and flag.startswith("--")):
            flag, value = word, next(words, "-")  # no value reads as "-"
            if value.startswith("-"):
                return None
        if flag not in options:
            return None
        dest, convert, choices = options[flag]
        if convert is not None:
            try:
                value = convert(value)
            except (TypeError, ValueError):  # what argparse reports as invalid
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        given.add(dest)
    if not given.issuperset(required):
        return None
    return SimpleNamespace(**values, verb=argv[0])


@cache
def _option_table(verb: str) -> tuple[dict, dict, list] | None:
    """What _plain_args reads of verb's VERBS entry: each flag of the verb
    and --format mapped to (dest, type, choices); each dest with its default
    (None when none is declared), and the handler; the required dests.
    None when the verb has a positional argument."""
    _, handler, formats, arguments = VERBS[verb]
    options = {"--format": ("format", None, formats)}
    defaults = {"format": "pretty", "handler": handler}
    required = []
    for flags, spec in arguments:
        if not flags[0].startswith("-"):
            return None
        long = [flag for flag in flags if flag.startswith("--")]
        dest = spec.get("dest") or (long[0][2:].replace("-", "_") if long else flags[0][1:])
        for flag in flags:
            options[flag] = (dest, spec.get("type"), spec.get("choices"))
        defaults[dest] = spec.get("default")
        if spec.get("required"):
            required.append(dest)
    return options, defaults, required


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The full glinv parser, with a subparser per verb, for the calls
    _plain_args leaves: help, usage errors, the top-level help and the
    unknown-verb error, and every qbinom call. It is built on its first use
    in a process, with argparse imported then, and returned again
    afterwards. Reuse carries nothing from one call to the next: each parse
    fills a fresh Namespace, no argument has a mutable default or an
    accumulating action, the progs are fixed, and the help width is read
    when help is formatted."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="glinv",
        description="Exact invariants of GL-stable ideals in a generic matrix ring.",
        epilog="Verbs may be prefixed with 'ideal' (e.g. 'glinv ideal power ...').",
    )
    sub = parser.add_subparsers(dest="verb", metavar="verb")
    for name, (help_, handler, fmt, arguments) in VERBS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--format", choices=sorted(fmt), default="pretty")
        p.set_defaults(handler=handler)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def _context(m: int, n: int) -> MatrixContext:
    """Context with the sides ordered; transposing changes nothing in the
    classification, so a wider-than-tall input is flipped with a notice."""
    if m < n:
        print(f"note: transposing to m={n}, n={m}; the classification and all "
              "invariants are unchanged, row and column weights swap roles",
              file=sys.stderr)
        m, n = n, m
    return MatrixContext(m, n)


def _check_gens(data) -> list:
    """data itself if it is a list of lists; make_ideal checks the entries
    (by partitions.dominant_weight), so that 2.7 or true is never coerced."""
    if not (isinstance(data, list) and all(isinstance(g, list) for g in data)):
        raise ValueError("generators must be a JSON list of integer lists")
    return data


def _parse_gens(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"generators are not valid JSON: {exc}") from None
    return _check_gens(data)


def _read_ideal_file(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read ideal file {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"ideal file {path} is not valid JSON: {exc}") from None


_FAMILIES = {"power": power_of_minors, "symbolic": symbolic_power,
             "saturated": saturated_power}


def _at_most(most: int, template: str, *options: tuple[str, object]) -> None:
    """A UsageError when more than most of the (flag, value) options are
    given, a value being given when it is not None: template with the
    given flags joined as "-m", "-m and -n" or "--in, --kind and --gens"."""
    flags = [flag for flag, value in options if value is not None]
    if len(flags) > most:
        names = f"{', '.join(flags[:-1])} and {flags[-1]}" if flags[1:] else flags[0]
        raise UsageError(template.format(names))


def _resolve_ideal(args) -> InvariantIdeal:
    """The ideal of a call, read from exactly one source: --in FILE, whose
    file carries m and n, --kind with -p and -d, or --gens; the verbs power,
    symbolic and saturated build their own family. Any other combination is
    a usage error that names the options, so no option is ignored."""
    infile = getattr(args, "infile", None)
    kind = getattr(args, "kind", None)
    _at_most(1, "give one ideal source, not {}",
             ("--in", infile), ("--kind", kind), ("--gens", getattr(args, "gens", None)))
    if hasattr(args, "kind") and kind is None:  # saturate's -p is its own
        _at_most(0, "{} given without --kind", ("-p", args.p), ("-d", args.d))
    if infile is not None:
        _at_most(0, "{} given with --in, whose file carries m and n",
                 ("-m", args.m), ("-n", args.n))
        data = _read_ideal_file(infile)
        try:
            m, n, gens = data["m"], data["n"], data["gens"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"ideal file must carry keys m, n, gens: {exc}") from None
        ctx = _context(_integer(m, "ideal file key m"), _integer(n, "ideal file key n"))
        return make_ideal(ctx, _check_gens(gens))
    if args.m is None or args.n is None:
        raise UsageError("need -m and -n (or --in FILE)")
    ctx = _context(args.m, args.n)
    # the verbs power, symbolic and saturated are named after their family
    builder = _FAMILIES.get(getattr(args, "kind", args.verb))
    if builder is not None:
        if args.p is None or args.d is None:
            raise UsageError("--kind needs -p and -d")
        return builder(ctx, args.p, args.d)
    if getattr(args, "gens", None) is None:
        raise UsageError("need --gens, --kind, or --in FILE")
    return make_ideal(ctx, _parse_gens(args.gens))


class _ListFormats(dict):
    """lengths -> template with each slot filled by one "%d" per entry of an
    int list, joined by sep, made on first use: the format that writes those
    lists and the template's own %d fields in one % operation. lengths is an
    int for one slot, a tuple for several. The %d of an int is its repr, as
    json.dumps writes it. Only the lengths met are kept, each format at most
    twice the text it first wrote, so the kept formats never outgrow the
    output."""

    def __init__(self, template: str, sep: str = ", "):
        super().__init__()
        self.template = template
        self.sep = sep

    def __missing__(self, lengths: int | tuple[int, ...]) -> str:
        counts = lengths if isinstance(lengths, tuple) else (lengths,)
        self[lengths] = self.template.format(*[self.sep.join(["%d"] * k) for k in counts])
        return self[lengths]


# the formats of the int lists the answers hold; the JSON ones write them as
# json.dumps(..., sort_keys=True) does, since every JSON answer but the error
# object, whose message needs escaping, and the lc table and qbinom, whose
# string keys sort as strings (_emit_json), is written by % templates. A term
# is (degree, multiplicity, *wm, *wn), keyed by the lengths of wm and wn
_JSON_GEN = _ListFormats("[{}]")
_JSON_PAIR = _ListFormats('{{"l": %d, "z": [{}]}}')
_JSON_TERM = _ListFormats('{{"deg": %d, "mult": %d, "wm": [{}], "wn": [{}]}}')
_CSV_PAIR = _ListFormats("%d,{}", " ")
_PRETTY_PAIR = _ListFormats("l=%d  z=({})", ",")
_PRETTY_GEN = _ListFormats("({})  degree %d", ",")
_PRETTY_TERM = _ListFormats("  deg %d  mult %d  S({}) * S({})", ",")


def _ideal_fields(ideal: InvariantIdeal) -> str:
    """The keys of the ideal object {"gens", "m", "n"}, braces left out, as
    json.dumps(..., sort_keys=True) writes them."""
    return '"gens": [%s], "m": %d, "n": %d' % (
        ", ".join([_JSON_GEN[len(g)] % g for g in ideal.gens]), ideal.ctx.m, ideal.ctx.n)


def _decimal(value: int) -> str:
    """str(value) for an int value >= 0 of any length. str refuses a value
    past Python's int-to-str digit limit (sys.get_int_max_str_digits(), 0
    for none), which stays in force because it also guards the parsing of
    --gens and --weight; so a longer value is cut by divmod into pieces of
    limit - 1 digits, each converted under the limit."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit or value.bit_length() < 3 * limit:  # below 8**limit, so at most limit digits
        return str(value)
    width = limit - 1
    base, pieces = 10**width, []
    while value >= base:
        value, low = divmod(value, base)
        pieces.append(str(low).zfill(width))
    pieces.append(str(value))
    return "".join(reversed(pieces))


def _emit_json(obj) -> None:
    """obj as json.dumps(..., sort_keys=True) writes it: the lc table and
    qbinom, whose keys are strings of ints and sort as strings."""
    print(json.dumps(obj, sort_keys=True))


def render_diagram(x) -> str:
    """Young diagram of the partition x, one '#' per box, rows left-aligned
    and indented by two spaces."""
    return "\n".join(["  " + "#" * v for v in x]) if x else "  (no boxes)"


def _print_ideal(ideal: InvariantIdeal, fmt: str) -> None:
    """The ideal under json as the object {"gens", "m", "n"} that
    json.dumps(..., sort_keys=True) writes, from one template; otherwise m
    and n, then the zero or unit ideal named, or each generator with its
    degree and Young diagram."""
    if fmt == "json":
        print("{%s}" % _ideal_fields(ideal))
        return
    print(f"m = {ideal.ctx.m}, n = {ideal.ctx.n}")
    if ideal.is_zero:
        print("zero ideal (no generators)")
        return
    if ideal.is_unit:
        print("unit ideal (generated by the empty minor)")
        return
    print(f"{len(ideal.gens)} generator{'s' if len(ideal.gens) != 1 else ''}:")
    for g in ideal.gens:
        print(_PRETTY_GEN[len(g)] % (*g, size(g)))
        print(render_diagram(g))


def _cmd_normalize(args) -> None:
    _print_ideal(_resolve_ideal(args), args.format)


def _cmd_compare(args) -> None:
    ctx = _context(args.m, args.n)
    left = make_ideal(ctx, _parse_gens(args.left))
    right = make_ideal(ctx, _parse_gens(args.right))
    _print_compare(left, right, _RELATIONS[(ideal_leq(left, right), ideal_leq(right, left))],
                   args.format)


def _print_compare(left: InvariantIdeal, right: InvariantIdeal, relation: tuple[str, str],
                   fmt: str) -> None:
    """relation, a value of _RELATIONS: under json the object
    {"left", "relation", "right"} that json.dumps(..., sort_keys=True)
    writes, from one template; otherwise its wording."""
    if fmt == "json":
        print('{"left": {%s}, "relation": "%s", "right": {%s}}'
              % (_ideal_fields(left), relation[0], _ideal_fields(right)))
    else:
        print(relation[1])


# (left >= right, right >= left) as ideals -> (json relation, pretty wording)
_RELATIONS = {
    (True, True): ("equal", "the ideals are equal"),
    (True, False): ("contains", "the left ideal strictly contains the right"),
    (False, True): ("contained-in", "the left ideal is strictly contained in the right"),
    (False, False): ("incomparable", "the ideals are incomparable"),
}


def _cmd_saturate(args) -> None:
    ideal = _resolve_ideal(args)
    _print_ideal(saturate(ideal, args.p), args.format)


def _cmd_zset(args) -> None:
    """The pairs (z, l) of the ideal's Z-set, sorted by l descending, then
    size and z, printed by _print_zset."""
    ideal = _resolve_ideal(args)
    _print_zset(sorted(_zset_walk(ideal.ctx, ideal.gens),
                       key=lambda pair: (-pair[1], sum(pair[0]), pair[0])),
                ideal.ctx, args.format)


def _print_zset(pairs: list[tuple[tuple[int, ...], int]], ctx: MatrixContext, fmt: str) -> None:
    """The pairs (z, l) in their order. Under json they are the object
    {"m", "n", "pairs"}, each pair {"l", "z"}, as json.dumps(...,
    sort_keys=True) writes it; under csv a header, then "l,z" with z's parts
    spaced; otherwise a count, then one line per pair. Each pair is written
    by its format's template for the length of z."""
    if fmt == "json":
        print('{"m": %d, "n": %d, "pairs": [%s]}' % (
            ctx.m, ctx.n, ", ".join([_JSON_PAIR[len(z)] % (l, *z) for z, l in pairs])))
    elif fmt == "csv":
        print("\n".join(["l,z", *[_CSV_PAIR[len(z)] % (l, *z) for z, l in pairs]]))
    else:
        print("\n".join([f"{len(pairs)} composition factor{'s' if len(pairs) != 1 else ''}:",
                         *[_PRETTY_PAIR[len(z)] % (l, *z) for z, l in pairs]]))


def _parse_window(text: str) -> DegreeWindow:
    """The window lo..hi, each end spelled as _int reads it. An end past
    Python's int-to-str digit limit stays int's ValueError, a domain error
    that names the limit."""
    lo, _, hi = text.partition("..")
    if not (_spells_int(lo) and _spells_int(hi)):
        raise UsageError(f"window must look like lo..hi, got {text!r}")
    return DegreeWindow(int(lo), int(hi))


def _print_character(runs: dict[int, list[tuple[int, ...]]], ctx: MatrixContext,
                     window: DegreeWindow, fmt: str, index_label: str) -> None:
    """A windowed character, given as the sorted runs of flat terms
    (degree, multiplicity, *wm, *wn) per index that glinv.schur._runs returns,
    wm of length m and wn of length n, as one printed string: under json, the
    list of {"j", "terms", "window"} objects as json.dumps with sorted keys
    writes it; otherwise a header line per index, then one line per term.
    Each term is one % operation on the format of its weight lengths. print
    writes the final newline on its own, so under python -u, where a write
    cut short by a closing pipe returns without an error, that write raises
    BrokenPipeError."""
    if fmt == "json":
        term = _JSON_TERM[ctx.m, ctx.n].__mod__
        window_text = f'"window": [{window.lo}, {window.hi}]'
        objects = [f'{{"j": {j}, "terms": [{", ".join(map(term, terms))}], {window_text}}}'
                   for j, terms in runs.items()]
        print(f"[{', '.join(objects)}]")
        return
    term = _PRETTY_TERM[ctx.m, ctx.n].__mod__
    lines = [f"window: {window.lo}..{window.hi}"]
    if not runs:
        lines.append("no terms in the window")
    for j, terms in runs.items():
        lines.append(f"{index_label}^{j}:")
        lines += map(term, terms)
    print("\n".join(lines))


def _cmd_ext(args) -> None:
    ideal = _resolve_ideal(args)
    window = _parse_window(args.window)
    _print_character(_ext_terms(ideal.ctx, zset(ideal), window), ideal.ctx, window,
                     args.format, "Ext")


def _cmd_reg(args) -> None:
    ideal = _resolve_ideal(args)
    _print_reg(ideal, regularity(ideal), args.format)


def _print_reg(ideal: InvariantIdeal, r: int, fmt: str) -> None:
    """The regularity r of the ideal: under json the ideal object with it,
    {"gens", "m", "n", "regularity"}, from one template."""
    if fmt == "json":
        print('{%s, "regularity": %d}' % (_ideal_fields(ideal), r))
    else:
        print(f"regularity = {r}")


def _cmd_lc(args) -> None:
    ctx = _context(args.m, args.n)
    if args.ds is not None:
        if args.window is None:
            raise UsageError("--ds needs --window lo..hi")
        window = _parse_window(args.window)
        if args.format == "csv":
            raise UsageError("csv output is not defined for --ds")
        _integer(args.p, "minor size p", 1, ctx.n)  # unused here, checked as lc_table does
        if args.ds == 0:
            cap = LC_DS_MAX_TERMS if args.max_terms is None else args.max_terms
            # the count only compares its bound with the cap, so _refuse can
            # reject a bad --max-terms after it
            weights, exact = _ds_weight_count(ctx, window, cap)
            _refuse(cap, [weights], f"lc --ds 0 --window={window.lo}..{window.hi} emits",
                    "weights", exact)
        _print_character(_ds_terms(ctx, args.ds, window), ctx, window, args.format, "D")
        return
    if args.window is not None:
        raise UsageError("--window needs --ds")
    _refuse(QBINOM_MAX_TERMS if args.max_terms is None else args.max_terms,
            [_lc_table_updates(ctx, args.p)], f"lc -m {args.m} -n {args.n} -p {args.p} makes",
            "coefficient updates")
    table = lc_table(ctx, args.p)
    if args.format == "json":
        _emit_json({"p": args.p,
                    "rows": {str(j): {str(s): mult for s, mult in row.items()}
                             for j, row in table.rows.items()}})
    elif args.format == "csv":
        print("j,s,mult")
        for j, row in table.rows.items():
            for s, mult in row.items():
                print(f"{j},{s},{mult}")
    else:
        print(f"cohomology supported in the {args.p}x{args.p} minors "
              f"of a {ctx.m}x{ctx.n} matrix")
        for j, row in table.rows.items():
            cell = " + ".join(
                (f"{mult}*D_{s}" if mult != 1 else f"D_{s}")
                for s, mult in row.items()
            )
            print(f"H^{j} = {cell}")
        print(f"support: {min(table.rows)}..{max(table.rows)}")


def _cmd_betti(args) -> None:
    ctx = _context(args.m, args.n)
    # json writes every term of the polynomial; csv and pretty sum each
    # block term once, whatever the Gauss coefficients
    counts = (_betti_terms if args.format == "json" else _block_terms)(ctx, args.a, args.b)
    _refuse(args.max_terms, counts,
            f"betti -m {args.m} -n {args.n} -a {args.a} -b {args.b} makes", "terms")
    if args.format == "json":
        _print_betti_json(betti_polynomial(ctx, args.a, args.b), ctx, args.a, args.b)
        return
    table = betti_table(ctx, args.a, args.b)
    if args.format == "csv":
        for row in table.csv_rows():
            print(row)
    else:
        print(f"Betti table of the b={args.b} powers of the {args.a}x{args.a} "
              f"minors, {ctx.m}x{ctx.n} matrix")
        print(table.render())


def _print_betti_json(bp: EquivariantCharacter, ctx: MatrixContext, a: int, b: int) -> None:
    """The Betti polynomial bp as json.dumps with sorted keys writes
    {"a", "b", "by_homological_index", "m", "n"}: the homological indices are
    string keys, so "10" comes before "2". The terms are written as json
    objects, grouped by index, from one pass over bp's sorted keys, each by
    the format of its weight lengths."""
    groups: dict[int, list[str]] = {}
    index = None
    for (j, deg, wm, wn), mult in bp._sorted_terms():
        if j != index:
            index = j
            texts = groups[j] = []
        texts.append(_JSON_TERM[len(wm), len(wn)] % (deg, mult, *wm, *wn))
    by_index = ", ".join(f'"{i}": [{", ".join(groups[i])}]' for i in sorted(groups, key=str))
    print(f'{{"a": {a}, "b": {b}, "by_homological_index": {{{by_index}}}, '
          f'"m": {ctx.m}, "n": {ctx.n}}}')


def _cmd_schurdim(args) -> None:
    try:
        weight = json.loads(args.weight)
    except json.JSONDecodeError as exc:
        raise ValueError(f"weight is not valid JSON: {exc}") from None
    if not isinstance(weight, list):
        raise ValueError("weight must be a JSON list of integers")
    weight = dominant_weight(weight)
    N = _integer(args.N, "N", 1)
    padded = pad_weight(weight, N)
    _refuse(args.max_terms, [_dim_schur_factors(padded, N)], f"schurdim -N {N} multiplies",
            "factors")
    dim = _dim_schur(padded, N)
    if args.format == "json":
        print('{"N": %d, "dim": %s, "weight": %s}'
              % (N, _decimal(dim), _JSON_GEN[len(weight)] % weight))
    else:
        print(f"dim = {_decimal(dim)}")


# qbinom and the lc table refuse a query whose coefficient updates pass this
# cap before making any; 20,000,000 updates take about 2 s (qbinom 400 200
# makes 15,920,200), and --max-terms sets another cap
QBINOM_MAX_TERMS = 20_000_000

# betti refuses a query whose terms pass this cap before making any, and
# --max-terms sets another cap. csv and pretty count the block terms they
# sum, json the Betti polynomial's terms it writes; they agree for a=b=1.
# Near the cap, as whole processes on a shared 2-vCPU machine, csv and
# pretty take 0.3 to 0.5 s (10x10 sums 184,755 block terms at a=b=1 and
# 184,655 at a=b=2), and json 1.0 to 1.4 s (9x9 a=b=2 writes 170,171 terms)
BETTI_MAX_TERMS = 200_000

# lc --ds 0 refuses a window whose weights pass this cap before making any;
# 300,000 weights take about 1.5 s (a 6x6 window -100..-36 holds 336,339
# and takes 1.6 to 1.7 s as a whole process, pretty or json), and
# --max-terms sets another cap
LC_DS_MAX_TERMS = 300_000


# schurdim refuses a weight whose factors pass this cap before multiplying
# any, and --max-terms sets another cap. The pair factors grow the product
# and cost most: near the cap (283 distinct entries, 39,903 pairs) a whole
# process takes 0.5 to 1.2 s, and about 1.9 s with entries a million apart
# (282,000,000, ..., 1,000,000, 0 in GL_283, 239,419 digits)
SCHURDIM_MAX_TERMS = 40_000


# _refuse counts exactly up to the cap in force or this ceiling, whichever
# is higher, so no count takes long to make or to print
_COUNT_CEILING = 2**63


def _refuse(cap: int, counts: Iterable[int], query: str, unit: str, exact: bool = True) -> None:
    """Refuse a query past cap, the --max-terms in force, before it starts:
    one ValueError that names the sum of counts, its units, or a lower bound
    when exact is false, and the --max-terms that runs (or counts) it. The
    counts are read one at a time and summed up to the ceiling
    max(cap, _COUNT_CEILING); once the sum passes it the rest go unread,
    and the bound named is the ceiling plus one."""
    cap = _integer(cap, "--max-terms", 0)
    ceiling, count = max(cap, _COUNT_CEILING), 0
    for part in counts:
        count += part
        if count > ceiling:
            count, exact = ceiling + 1, False
            break
    if count > cap:
        amount, then = (f"{count:,}", "run it") if exact else (f"at least {count:,}", "count them")
        raise ValueError(f"{query} {amount} {unit}, more than the cap of {cap:,}; "
                         f"pass --max-terms {count} to {then}")


def _cmd_qbinom(args) -> None:
    _refuse(args.max_terms, [_qbinomial_updates(args.a, args.b)], f"qbinom {args.a} {args.b} makes",
            "coefficient updates")
    coeffs = qbinomial(args.a, args.b)
    if args.format == "json":
        _emit_json({"a": args.a, "b": args.b,
                    "coefficients": {str(e): c for e, c in enumerate(coeffs)}})
    elif args.format == "csv":
        print("exponent,coefficient")
        for e, c in enumerate(coeffs):
            print(f"{e},{c}")
    else:
        # Gauss coefficients are positive, so every term is joined by " + "
        terms = []
        for e, c in enumerate(coeffs):
            var = "" if e == 0 else "q" if e == 1 else f"q^{e}"
            terms.append(var if c == 1 and var else f"{c}{var}")
        print(" + ".join(terms) or "0")


def _cmd_selftest(args) -> int:
    from .golden import run_golden_checks

    results = run_golden_checks()
    failures = 0
    for name, err in results:
        if err is None:
            print(f"ok {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {err}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def _spells_int(word: str) -> bool:
    """True when word is ASCII digits after at most one minus sign: the one
    spelling of an integer that glinv reads from argv."""
    digits = word.removeprefix("-")
    return digits.isascii() and digits.isdigit()


def _int(word: str) -> int:
    """The integer word spells, for the integer arguments of VERBS; a word
    that int would read but _spells_int refuses ("+7", " 7", "1_0",
    non-ASCII digits) is a ValueError, as every other bad word is. Named
    int, so that argparse still reports "invalid int value"."""
    if not _spells_int(word):
        raise ValueError(f"not an integer: {word!r}")
    return int(word)


_int.__name__ = "int"


def _arg(*flags: str, **options) -> tuple:
    """One add_argument call of a verb, as data."""
    return flags, options


_MN = (_arg("-m", type=_int, required=True), _arg("-n", type=_int, required=True))
_P = _arg("-p", type=_int, required=True, help="minor size")
_IDEAL = (
    _arg("-m", type=_int), _arg("-n", type=_int),
    _arg("--gens", help="JSON list of generator partitions"),
    _arg("--in", dest="infile", metavar="FILE",
         help="ideal as a JSON object with keys m, n, gens ('-' for stdin)"),
)
_FAMILY = (
    *_IDEAL,
    _arg("--kind", choices=tuple(_FAMILIES),
         help="build the ideal from -p and -d instead of --gens"),
    _arg("-p", type=_int, help="minor size (with --kind)"),
    _arg("-d", type=_int, help="exponent (with --kind)"),
)
_POWER = (*_MN, _P, _arg("-d", type=_int, required=True, help="exponent"))
_JP = ("json", "pretty")
_JPC = ("json", "pretty", "csv")

# verb -> (help, handler, --format choices, the verb's own arguments), in the
# order of the top-level help
VERBS = {
    "normalize": ("canonicalize a generating family", _cmd_normalize, _JP, _IDEAL),
    "compare": ("containment relation of two ideals", _cmd_compare, _JP, (
        *_MN, _arg("--left", required=True, help="JSON list of generators"),
        _arg("--right", required=True, help="JSON list of generators"))),
    "power": ("ordinary power of the ideal of p x p minors", _cmd_normalize, _JP,
              _POWER),
    "symbolic": ("symbolic power of the ideal of p x p minors", _cmd_normalize, _JP,
                 _POWER),
    "saturated": ("saturation of the power by the maximal ideal", _cmd_normalize, _JP,
                  _POWER),
    "saturate": ("saturation of an ideal by the p x p minors", _cmd_saturate, _JP,
                 (*_IDEAL, _P)),
    "zset": ("composition factor indices (z, l) of S/I", _cmd_zset, _JPC, _FAMILY),
    "ext": ("windowed Ext character of S/I", _cmd_ext, _JP,
            (*_FAMILY, _arg("--window", required=True, help="degree window lo..hi"))),
    "reg": ("Castelnuovo-Mumford regularity of I", _cmd_reg, _JP, _FAMILY),
    "lc": ("local cohomology supported in the p x p minors", _cmd_lc, _JPC, (
        *_MN, _P,
        _arg("--ds", type=_int, metavar="S",
             help="expand the character of the factor D_S instead"),
        _arg("--window", help="degree window lo..hi (with --ds)"),
        _arg("--max-terms", type=_int, metavar="N",
             help=f"refuse a table past N coefficient updates (default {QBINOM_MAX_TERMS:,}) "
                  f"or a --ds 0 window past N weights (default {LC_DS_MAX_TERMS:,})"))),
    "betti": ("equivariant Betti numbers of the b-th powers of the a x a minors",
              _cmd_betti, _JPC, (
                  *_MN, _arg("-a", type=_int, required=True, help="minor size"),
                  _arg("-b", type=_int, required=True, help="power"),
                  _arg("--max-terms", type=_int, default=BETTI_MAX_TERMS, metavar="N",
                       help=f"refuse a query past N terms (default {BETTI_MAX_TERMS:,})"))),
    "schurdim": ("dimension of an irreducible GL_N representation", _cmd_schurdim, _JP, (
        _arg("-N", type=_int, required=True),
        _arg("--weight", required=True, help="JSON list, weakly decreasing"),
        _arg("--max-terms", type=_int, default=SCHURDIM_MAX_TERMS, metavar="COUNT",
             help=f"refuse a weight past COUNT factors (default {SCHURDIM_MAX_TERMS:,})"))),
    "qbinom": ("Gauss polynomial binomial(a, b) in q", _cmd_qbinom, _JPC,
               (_arg("a", type=_int), _arg("b", type=_int),
                _arg("--max-terms", type=_int, default=QBINOM_MAX_TERMS, metavar="N",
                     help="refuse a query past N coefficient updates "
                          f"(default {QBINOM_MAX_TERMS:,})"))),
    "selftest": ("run the embedded reference corpus", _cmd_selftest, ("pretty",), ()),
}


if __name__ == "__main__":
    sys.exit(main())
