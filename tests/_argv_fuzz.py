"""Seeded fuzz of glinv.cli._plain_args against the full argparse parser.

Every argv is a verb of VERBS followed by words drawn from that verb's own
table: its flags and --format, abbreviated or not, with values good and bad,
in "option value", "--long=value" and attached forms, mixed with "--",
"-h", stray words and repeats. Wherever _plain_args accepts an argv, its
namespace must equal the one _build_parser().parse_args gives, and that
parse must succeed. tests/test_cli.py runs it; it also runs on its own, for
interpreters without pytest:

    PYTHONPATH=src python tests/_argv_fuzz.py [SEED] [PER_VERB]

which prints the counts and exits 1 on a mismatch.
"""

import contextlib
import io
import random
import sys

from glinv.cli import VERBS, _build_parser, _int, _plain_args

INTS = ["3", "2", "4", "+7", " 7", "1_0", "٣", "0", "-1", "x", "", "2.5", "-", "0x3"]
TEXTS = ["[[1]]", "[[2,1]]", "-4..-3", "", "-", "a b", "--kind", "x=y", "[1]"]
NOISE = ["--", "-h", "extra", "-x", "--bogus", "--format", "-m"]


def _value(rng: random.Random, spec: dict) -> str:
    if spec.get("choices"):
        return rng.choice([*spec["choices"]] * 3 + ["bogus", "", "-"])
    if spec.get("type") is _int:
        return rng.choice(INTS[:4] * 4 + INTS)
    return rng.choice(TEXTS)


def _words(rng: random.Random, flags: tuple, spec: dict) -> list[str]:
    """One option of the verb with a value, in one of the forms argparse reads."""
    flag = rng.choice(flags)
    if flag.startswith("--") and rng.random() < 0.08:
        flag = flag[:-1]  # an abbreviation
    value = _value(rng, spec)
    form = rng.random()
    if form < 0.7:
        return [flag, value]
    if form < 0.9 or not flag.startswith("--"):
        return [f"{flag}={value}"]
    return [flag + value]


def argvs(seed: int, per_verb: int):
    """per_verb argvs for each verb of VERBS, from one seeded generator."""
    rng = random.Random(seed)
    for verb, (_, _, formats, arguments) in VERBS.items():
        table = [(flags, spec) for flags, spec in arguments if flags[0].startswith("-")]
        positionals = len(arguments) - len(table)
        table.append((("--format",), {"choices": formats}))
        for _ in range(per_verb):
            picked = [(flags, spec) for flags, spec in table
                      if rng.random() < (0.93 if spec.get("required") else 0.4)]
            rng.shuffle(picked)
            words = [word for flags, spec in picked for word in _words(rng, flags, spec)]
            if picked and rng.random() < 0.15:  # a repeat, whose last value wins
                words += _words(rng, *rng.choice(picked))
            if rng.random() < 0.1:
                words.insert(rng.randrange(len(words) + 1), rng.choice(NOISE))
            words = [rng.choice(INTS) for _ in range(positionals)] + words
            yield [verb, *words]


def mismatches(seed: int, per_verb: int) -> tuple[int, int, list]:
    """(argvs made, argvs _plain_args accepts, those where it disagrees with
    the full parser, each with what the full parser gave)."""
    made = accepted = 0
    bad = []
    parser = _build_parser()
    for argv in argvs(seed, per_verb):
        made += 1
        plain = _plain_args(argv)
        if plain is None:
            continue
        accepted += 1
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
                full = vars(parser.parse_args(argv))
        except SystemExit as exc:
            full = f"exit {exc.code}: {err.getvalue().strip()}"
        if vars(plain) != full:
            bad.append((argv, vars(plain), full))
    return made, accepted, bad


def main(argv: list[str]) -> int:
    seed = int(argv[0]) if argv else 47
    per_verb = int(argv[1]) if len(argv) > 1 else 3000
    made, accepted, bad = mismatches(seed, per_verb)
    print(f"Python {sys.version.split()[0]}: seed {seed}, {made} argvs, "
          f"{accepted} read by _plain_args, {len(bad)} differ from the full parser")
    for argv, plain, full in bad[:20]:
        print(f"  {argv!r}\n    plain: {plain}\n    full:  {full}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
