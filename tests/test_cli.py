import io
import json
import os
import subprocess
import sys
import time

import pytest

import glinv.cli as cli
from glinv import betti, conjugate, dim_schur, golden, loccoh, zset
from glinv.cli import VERBS, _build_parser, main, render_diagram

from _argv_fuzz import mismatches
from _oracles import qbinomial_pascal

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
POWER_JSON = '{"gens": [[3, 3], [3, 2, 1], [2, 2, 2]], "m": 3, "n": 3}'


def run(capsys, argv):
    """Exit status, stdout and stderr of main(argv); help and argparse's
    usage errors end in SystemExit, whose code is the status."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_power_json_golden(capsys):
    code, out, err = run(capsys, ["power", "-m", "3", "-n", "3", "-p", "2",
                                  "-d", "3", "--format", "json"])
    assert code == 0
    assert out == POWER_JSON + "\n"
    assert err == ""


def test_ideal_prefix_token_is_accepted(capsys):
    code, out, _ = run(capsys, ["ideal", "power", "-m", "3", "-n", "3",
                                "-p", "2", "-d", "3", "--format", "json"])
    assert code == 0
    assert out == POWER_JSON + "\n"


def test_normalize_roundtrip_fixed_point(tmp_path, capsys):
    src = tmp_path / "ideal.json"
    src.write_text(json.dumps({"m": 3, "n": 3, "gens": [[2, 1], [2, 2], [3, 1]]}))
    code, out, _ = run(capsys, ["normalize", "--in", str(src), "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"m": 3, "n": 3, "gens": [[2, 1]]}
    again = tmp_path / "again.json"
    again.write_text(out)
    code, out2, _ = run(capsys, ["normalize", "--in", str(again), "--format", "json"])
    assert code == 0
    assert out2 == out


def test_normalize_reads_stdin(capsys, monkeypatch):
    payload = json.dumps({"m": 3, "n": 3, "gens": [[1, 1], [1]]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, out, _ = run(capsys, ["normalize", "--in", "-", "--format", "json"])
    assert code == 0
    assert json.loads(out)["gens"] == [[1]]


def test_normalize_pretty_mentions_degree(capsys):
    code, out, _ = run(capsys, ["normalize", "-m", "3", "-n", "3",
                                "--gens", "[[3,1]]"])
    assert code == 0
    assert "degree 4" in out
    assert "###" in out
    code, out, err = run(capsys, ["normalize", "-m", "3", "-n", "3", "--gens", "[]"])
    assert (code, out, err) == (0, "m = 3, n = 3\nzero ideal (no generators)\n", "")


def _grid(x):
    lines = render_diagram(x, indent="").splitlines()
    return {(r, c) for r, line in enumerate(lines) for c in range(len(line))}


def test_render_diagram_transposes():
    for x in ((3, 1), (2, 2, 1), (4,), (1, 1, 1)):
        assert _grid(conjugate(x)) == {(c, r) for r, c in _grid(x)}
    assert render_diagram(()) == "  (no boxes)"


@pytest.mark.parametrize("left,right,relation,wording", [
    ("[[1]]", "[[1]]", "equal", "the ideals are equal"),
    ("[[1]]", "[[1,1]]", "contains", "strictly contains"),
    ("[[1,1]]", "[[1]]", "contained-in", "strictly contained in"),
    ("[[2]]", "[[1,1]]", "incomparable", "incomparable"),
])
def test_compare_relations(capsys, left, right, relation, wording):
    code, out, _ = run(capsys, ["compare", "-m", "3", "-n", "3",
                                "--left", left, "--right", right,
                                "--format", "json"])
    assert code == 0
    assert json.loads(out)["relation"] == relation
    code, out, _ = run(capsys, ["compare", "-m", "3", "-n", "3",
                                "--left", left, "--right", right])
    assert code == 0
    assert wording in out


def test_wide_matrix_is_transposed_with_notice(capsys):
    code, out, err = run(capsys, ["normalize", "-m", "2", "-n", "3",
                                  "--gens", "[[1]]", "--format", "json"])
    assert code == 0
    assert "transposing" in err
    assert json.loads(out) == {"m": 3, "n": 2, "gens": [[1]]}


def test_zset_json_golden(capsys):
    code, out, _ = run(capsys, ["zset", "-m", "3", "-n", "3",
                                "--gens", "[[1,1]]", "--format", "json"])
    assert code == 0
    assert out == '{"m": 3, "n": 3, "pairs": [{"l": 1, "z": []}]}\n'


def test_zset_csv_golden(capsys):
    code, out, _ = run(capsys, ["zset", "-m", "3", "-n", "3", "--kind", "power",
                                "-p", "2", "-d", "2", "--format", "csv"])
    assert code == 0
    assert out == "l,z\n1,\n1,1 1\n0,1 1 1\n"


def _zset_texts(m: int, n: int, pairs) -> dict[str, str]:
    # zset's three formats, written one line at a time from the ZPair
    # records sorted by l descending, then size and z
    pairs = sorted(pairs, key=lambda zp: (-zp.l, sum(zp.z), zp.z))
    header = f"{len(pairs)} composition factor{'s' if len(pairs) != 1 else ''}:"
    lines = {"csv": ["l,z", *(f"{zp.l},{' '.join(map(str, zp.z))}" for zp in pairs)],
             "pretty": [header, *(f"l={zp.l}  z=({','.join(map(str, zp.z))})" for zp in pairs)]}
    texts = {fmt: "".join(f"{line}\n" for line in rows) for fmt, rows in lines.items()}
    texts["json"] = json.dumps({"m": m, "n": n, "pairs": [{"z": list(zp.z), "l": zp.l}
                                                        for zp in pairs]}, sort_keys=True) + "\n"
    return texts


def _assert_zset_prints(capsys, ideal, argv):
    for fmt, text in _zset_texts(ideal.ctx.m, ideal.ctx.n, zset(ideal)).items():
        assert run(capsys, ["zset", *argv, "--format", fmt]) == (0, text, ""), (argv, fmt)


@pytest.mark.parametrize("kind", sorted(cli._FAMILIES))
def test_zset_prints_the_sorted_pairs_of_zset_on_the_families(capsys, kind):
    # the CLI sorts the walk's plain cells; zset() builds ZPair records
    for n in range(1, 7):
        for m in (n, n + 1):
            for p in range(1, n + 1):
                for d in range(1, 6):
                    ideal = cli._FAMILIES[kind](cli.MatrixContext(m, n), p, d)
                    _assert_zset_prints(capsys, ideal, ["--kind", kind, "-p", str(p), "-d", str(d),
                                                        "-m", str(m), "-n", str(n)])


@pytest.mark.parametrize("m, n, gens", [
    (3, 3, []),  # the zero ideal: no pair
    (3, 3, [[]]),  # the unit ideal: no pair
    (4, 4, [[5, 1], [2, 2, 2, 2], [5, 1, 0], [6, 1]]),
    (5, 4, [[7, 1], [3, 3, 3], [4, 4, 1, 1]]),
    (6, 6, [[4, 4, 4], [6, 2, 2, 1], [3, 3, 3, 3, 3, 3], [1, 1, 1, 1, 1, 1]]),
])
def test_zset_prints_the_sorted_pairs_of_zset_on_raw_gens(capsys, m, n, gens):
    ideal = cli.make_ideal(cli.MatrixContext(m, n), gens)
    _assert_zset_prints(capsys, ideal, ["--gens", json.dumps(gens), "-m", str(m), "-n", str(n)])


def test_ext_requires_window(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ext", "-m", "3", "-n", "3", "--kind", "power", "-p", "3", "-d", "1"])
    assert exc.value.code == 2


def test_ext_rejects_malformed_window(capsys):
    code, _, err = run(capsys, ["ext", "-m", "3", "-n", "3", "--kind", "power",
                                "-p", "3", "-d", "1", "--window=whenever"])
    assert code == 2
    assert "usage error" in err


def test_ext_json_golden(capsys):
    code, out, _ = run(capsys, ["ext", "-m", "3", "-n", "3", "--kind", "power",
                                "-p", "3", "-d", "1", "--window=-4..-3",
                                "--format", "json"])
    assert code == 0
    assert out == ('[{"j": 1, "terms": [{"deg": -3, "mult": 1, '
                   '"wm": [-1, -1, -1], "wn": [-1, -1, -1]}], '
                   '"window": [-4, -3]}]\n')


def test_ext_pretty_golden(capsys):
    # two indices on a non-square matrix, terms ordered by degree, then wm
    code, out, err = run(capsys, ["ext", "--kind", "power", "-p", "2", "-d", "2",
                                  "-m", "4", "-n", "3", "--window=-12..-8"])
    assert code == 0
    assert err == ""
    assert out == ("window: -12..-8\n"
                   "Ext^6:\n"
                   "  deg -9  mult 1  S(-2,-2,-2,-3) * S(-2,-3,-4)\n"
                   "  deg -8  mult 1  S(-2,-2,-2,-2) * S(-2,-3,-3)\n"
                   "  deg -8  mult 1  S(-1,-2,-2,-3) * S(-1,-3,-4)\n"
                   "Ext^9:\n"
                   "  deg -12  mult 1  S(-3,-3,-3,-3) * S(-4,-4,-4)\n")


def test_lc_ds_pretty_golden(capsys):
    code, out, err = run(capsys, ["lc", "-m", "3", "-n", "2", "-p", "1", "--ds", "0",
                                  "--window=-9..-7"])
    assert code == 0
    assert err == ""
    assert out == ("window: -9..-7\n"
                   "D^0:\n"
                   "  deg -9  mult 1  S(-2,-3,-4) * S(-4,-5)\n"
                   "  deg -9  mult 1  S(-2,-2,-5) * S(-3,-6)\n"
                   "  deg -8  mult 1  S(-2,-3,-3) * S(-4,-4)\n"
                   "  deg -8  mult 1  S(-2,-2,-4) * S(-3,-5)\n"
                   "  deg -7  mult 1  S(-2,-2,-3) * S(-3,-4)\n")


@pytest.mark.parametrize("argv", [
    # the least Ext degree of this ideal is -15, the greatest D_0 degree -mn
    ["ext", "--kind", "power", "-p", "2", "-d", "2", "-m", "4", "-n", "3",
     "--window=-40..-20"],
    ["lc", "-m", "3", "-n", "2", "-p", "1", "--ds", "0", "--window=-3..-1"],
], ids=["ext", "lc-ds"])
def test_empty_window_golden(capsys, argv):
    lo, hi = argv[-1].split("=")[1].split("..")
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (0, f"window: {lo}..{hi}\nno terms in the window\n", "")
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, out, err) == (0, "[]\n", "")


def test_reg_outputs(capsys):
    code, out, _ = run(capsys, ["reg", "-m", "3", "-n", "3", "--kind", "power",
                                "-p", "2", "-d", "3"])
    assert code == 0
    assert out == "regularity = 6\n"
    code, out, _ = run(capsys, ["reg", "-m", "3", "-n", "3", "--kind", "power",
                                "-p", "2", "-d", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["regularity"] == 6


def test_lc_json_and_csv(capsys):
    code, out, _ = run(capsys, ["lc", "-m", "3", "-n", "3", "-p", "2",
                                "--format", "json"])
    assert code == 0
    assert out == '{"p": 2, "rows": {"4": {"0": 1, "1": 1}, "6": {"0": 1}}}\n'
    code, out, _ = run(capsys, ["lc", "-m", "3", "-n", "3", "-p", "2",
                                "--format", "csv"])
    assert code == 0
    assert out == "j,s,mult\n4,0,1\n4,1,1\n6,0,1\n"


def test_lc_pretty_lists_support(capsys):
    code, out, _ = run(capsys, ["lc", "-m", "3", "-n", "3", "-p", "2"])
    assert code == 0
    assert "H^4 = D_0 + D_1" in out
    assert "support: 4..6" in out


def test_lc_ds_requires_window(capsys):
    code, _, err = run(capsys, ["lc", "-m", "2", "-n", "2", "-p", "1", "--ds", "0"])
    assert code == 2
    assert "usage error" in err


def test_lc_window_requires_ds(capsys):
    code, out, err = run(capsys, ["lc", "-m", "3", "-n", "3", "-p", "1", "--window=-9..-9"])
    assert code == 2
    assert out == ""
    assert err == "usage error: --window needs --ds\n"


def test_lc_ds_has_no_csv(capsys):
    code, _, err = run(capsys, ["lc", "-m", "2", "-n", "2", "-p", "1", "--ds", "0",
                                "--window=-5..-4", "--format", "csv"])
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("p", ["99", "0"])
def test_lc_ds_checks_the_minor_size(capsys, p):
    # --ds reads no table, but p is still checked as the table checks it
    argv = ["lc", "-m", "2", "-n", "2", "-p", p, "--ds", "0", "--window=-5..-4"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"error: minor size p must be in 1..2, got {p}\n"
    # usage errors still come first
    code, _, err = run(capsys, [*argv, "--format", "csv"])
    assert code == 2
    assert err == "usage error: csv output is not defined for --ds\n"
    code, _, err = run(capsys, argv[:-1])
    assert code == 2
    assert err == "usage error: --ds needs --window lo..hi\n"


def test_lc_ds_json_golden(capsys):
    code, out, _ = run(capsys, ["lc", "-m", "2", "-n", "2", "-p", "1", "--ds", "0",
                                "--window=-5..-4", "--format", "json"])
    assert code == 0
    assert out == ('[{"j": 0, "terms": [{"deg": -5, "mult": 1, '
                   '"wm": [-2, -3], "wn": [-2, -3]}, {"deg": -4, "mult": 1, '
                   '"wm": [-2, -2], "wn": [-2, -2]}], "window": [-5, -4]}]\n')


def test_betti_csv(capsys):
    code, out, _ = run(capsys, ["betti", "-m", "3", "-n", "3", "-a", "2",
                                "-b", "2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i,degree,beta"
    assert "2,6,84" in lines


def test_betti_csv_and_pretty_never_build_the_polynomial(capsys, monkeypatch):
    # csv and pretty sum the blocks to numbers; only json needs the terms
    want = betti.BettiTable(betti.betti_polynomial(cli.MatrixContext(5, 4), 2, 2)
                            .dimension_table(5, 4))
    monkeypatch.setattr(cli, "betti_polynomial", None)
    monkeypatch.setattr(betti, "betti_polynomial", None)
    argv = ["betti", "-m", "5", "-n", "4", "-a", "2", "-b", "2"]
    assert run(capsys, [*argv, "--format", "csv"]) == (
        0, "\n".join(want.csv_rows()) + "\n", "")
    assert run(capsys, argv) == (
        0, "Betti table of the b=2 powers of the 2x2 minors, 5x4 matrix\n"
           + want.render() + "\n", "")
    with pytest.raises(TypeError):  # the control: json does build it
        main([*argv, "--format", "json"])


def test_qbinom_outputs(capsys):
    code, out, _ = run(capsys, ["qbinom", "4", "2"])
    assert code == 0
    assert out == "1 + q + 2q^2 + q^3 + q^4\n"
    code, out, _ = run(capsys, ["qbinom", "4", "2", "--format", "csv"])
    assert code == 0
    assert out == "exponent,coefficient\n0,1\n1,1\n2,2\n3,1\n4,1\n"


def _pascal_pretty(pairs) -> str:
    terms = []
    for e, c in pairs:
        var = "" if e == 0 else "q" if e == 1 else f"q^{e}"
        terms.append(var if c == 1 and var else f"{c}{var}")
    return " + ".join(terms) or "0"


def test_qbinom_matches_pascal_in_every_format(capsys):
    for a in range(13):
        for b in range(a + 2):
            pairs = qbinomial_pascal(a, b)
            code, out, _ = run(capsys, ["qbinom", str(a), str(b)])
            assert code == 0
            assert out == _pascal_pretty(pairs) + "\n"
            code, out, _ = run(capsys, ["qbinom", str(a), str(b), "--format", "json"])
            assert code == 0
            coeffs = {str(e): c for e, c in pairs}
            assert out == json.dumps({"a": a, "b": b, "coefficients": coeffs},
                                     sort_keys=True) + "\n"
            code, out, _ = run(capsys, ["qbinom", str(a), str(b), "--format", "csv"])
            assert code == 0
            assert out == "".join(f"{line}\n" for line in
                                  ["exponent,coefficient"] + [f"{e},{c}" for e, c in pairs])


def _qbinom_loop_updates(a: int, b: int) -> int:
    # the updates of partitions.qbinomial's two inner loops and the steps of
    # its outer loop, counted by running them
    top, count = b * (a - b), 0
    for i in range(1, b + 1):
        count += 1 + len(range(top, a - b + i - 1, -1)) + len(range(i, top + 1))
    return count


def test_qbinom_update_count_is_the_loops_count():
    for a in range(25):
        for b in range(a + 2):
            want = _qbinom_loop_updates(a, b) if b <= a else 0
            assert cli._qbinomial_updates(a, b) == want, (a, b)
    assert cli._qbinomial_updates(400, 200) < cli.QBINOM_MAX_TERMS


def test_qbinom_refuses_work_past_the_cap_before_starting(capsys, monkeypatch):
    monkeypatch.setattr(cli, "qbinomial", None)  # a refused query never computes
    code, out, err = run(capsys, ["qbinom", "800", "400"])
    assert (code, out) == (1, "")
    assert err == ("error: qbinom 800 400 makes 127,680,800 coefficient updates, more than "
                   "the cap of 20,000,000; pass --max-terms 127680800 to run it\n")
    code, out, err = run(capsys, ["qbinom", "800", "400", "--format", "json"])
    assert code == 1 and "127,680,800" in json.loads(out)["error"] and err == ""
    monkeypatch.undo()
    count = _qbinom_loop_updates(12, 5)
    code, out, err = run(capsys, ["qbinom", "12", "5", "--max-terms", str(count - 1)])
    assert (code, out) == (1, "") and f"--max-terms {count} " in err
    code, out, _ = run(capsys, ["qbinom", "12", "5", "--max-terms", str(count)])
    assert code == 0 and out == _pascal_pretty(qbinomial_pascal(12, 5)) + "\n"
    code, out, err = run(capsys, ["qbinom", "4", "2", "--max-terms", "-1"])
    assert (code, out, err) == (1, "", "error: --max-terms must be at least 0, got -1\n")


def test_betti_refuses_work_past_the_cap_before_starting(capsys, monkeypatch):
    monkeypatch.setattr(cli, "betti_polynomial", None)  # a refused query never computes
    code, out, err = run(capsys, ["betti", "-m", "12", "-n", "12", "-a", "1", "-b", "1"])
    assert (code, out) == (1, "")
    assert err == ("error: betti -m 12 -n 12 -a 1 -b 1 makes 2,704,155 terms, more than "
                   "the cap of 200,000; pass --max-terms 2704155 to run it\n")
    code, out, err = run(capsys, ["betti", "-m", "12", "-n", "12", "-a", "1", "-b", "1",
                                  "--format", "json"])
    assert code == 1 and "2,704,155" in json.loads(out)["error"] and err == ""
    monkeypatch.undo()
    # 10x10 a=b=1 stays under the default cap
    assert sum(cli._betti_terms(cli.MatrixContext(10, 10), 1, 1)) == 184_755 < cli.BETTI_MAX_TERMS
    # csv and pretty are priced by the block terms they sum, json by the
    # terms of the polynomial it writes; for a = b = 1 the two agree
    ctx = cli.MatrixContext(10, 10)
    assert sum(cli._block_terms(ctx, 1, 1)) == sum(cli._betti_terms(ctx, 1, 1))
    assert sum(cli._block_terms(ctx, 2, 2)) < cli.BETTI_MAX_TERMS < sum(cli._betti_terms(ctx, 2, 2))
    small = ["betti", "-m", "4", "-n", "3", "-a", "2", "-b", "2"]
    blocks = sum(cli._block_terms(cli.MatrixContext(4, 3), 2, 2))
    count = sum(cli._betti_terms(cli.MatrixContext(4, 3), 2, 2))
    assert blocks < count
    for fmt in ("pretty", "csv"):
        code, out, err = run(capsys, [*small, "--format", fmt, "--max-terms", str(blocks - 1)])
        assert (code, out) == (1, "") and f"makes {blocks} terms" in err
        code, out, _ = run(capsys, [*small, "--format", fmt, "--max-terms", str(blocks)])
        assert code == 0 and out == run(capsys, [*small, "--format", fmt])[1]
    code, out, _ = run(capsys, [*small, "--format", "json", "--max-terms", str(count - 1)])
    assert code == 1 and f"makes {count} terms" in json.loads(out)["error"]
    code, out, _ = run(capsys, [*small, "--format", "json", "--max-terms", str(count)])
    assert code == 0 and out == run(capsys, [*small, "--format", "json"])[1]
    code, out, err = run(capsys, [*small, "--max-terms", "-1"])
    assert (code, out, err) == (1, "", "error: --max-terms must be at least 0, got -1\n")
    # a transposed query names the dimensions as given
    code, out, err = run(capsys, ["betti", "-m", "12", "-n", "13", "-a", "1", "-b", "1"])
    assert code == 1 and err.endswith("error: betti -m 12 -n 13 -a 1 -b 1 makes 5,200,299 "
                                      "terms, more than the cap of 200,000; "
                                      "pass --max-terms 5200299 to run it\n")


def test_lc_ds_refuses_work_past_the_cap_before_starting(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_ds_terms", None)  # a refused query never computes
    argv = ["lc", "-m", "6", "-n", "6", "-p", "1", "--ds", "0", "--window=-200..-36"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == ("error: lc --ds 0 --window=-200..-36 emits 55,198,963 weights, more than "
                   "the cap of 300,000; pass --max-terms 55198963 to run it\n")
    code, out, err = run(capsys, [*argv, "--format", "json"])
    assert code == 1 and "55,198,963" in json.loads(out)["error"] and err == ""
    # past _DS_COUNT_STEPS the count gives way to a lower bound, named as one
    monkeypatch.setattr(loccoh, "_DS_COUNT_STEPS", 0)
    code, out, err = run(capsys, ["lc", "-m", "3", "-n", "3", "-p", "1", "--ds", "0",
                                  "--window=-2000..-9", "--max-terms", "1000"])
    assert (code, out) == (1, "")
    assert err == ("error: lc --ds 0 --window=-2000..-9 emits at least 331,336 weights, more "
                   "than the cap of 1,000; pass --max-terms 331336 to count them\n")
    monkeypatch.undo()
    small = ["lc", "-m", "3", "-n", "3", "-p", "1", "--ds", "0", "--window=-20..-9"]
    code, out, err = run(capsys, [*small, "--max-terms", "82"])
    assert (code, out) == (1, "") and "emits 83 weights" in err and "--max-terms 83 " in err
    code, out, _ = run(capsys, [*small, "--max-terms", "83"])
    assert code == 0 and out == run(capsys, small)[1] and out.count("mult 1") == 83
    code, out, err = run(capsys, [*small, "--max-terms", "-1"])
    assert (code, out, err) == (1, "", "error: --max-terms must be at least 0, got -1\n")


def test_lc_ds_count_gives_way_to_a_bound_past_two_million_steps(capsys, monkeypatch):
    # at n = m = 3 the count takes 3b steps, b = -9 - lo: b = 666,666 makes
    # 1,999,998, which _DS_COUNT_STEPS allows, and b = 666,667 makes
    # 2,000,001, which it does not, so the second names the bound
    monkeypatch.setattr(cli, "_ds_terms", None)  # a refused query never computes
    head = ["lc", "-m", "3", "-n", "3", "-p", "1", "--ds", "0"]
    code, out, err = run(capsys, [*head, "--window=-666675..-9"])
    assert (code, out) == (1, "")
    assert err == ("error: lc --ds 0 --window=-666675..-9 emits 8,230,557,613,545,268 weights, "
                   "more than the cap of 300,000; pass --max-terms 8230557613545268 to run it\n")
    code, out, err = run(capsys, [*head, "--window=-666676..-9"])
    assert (code, out) == (1, "")
    assert err == ("error: lc --ds 0 --window=-666676..-9 emits at least 37,037,407,408 weights, "
                   "more than the cap of 300,000; pass --max-terms 37037407408 to count them\n")


def test_counts_past_the_ceiling_stop_and_name_a_bound(capsys, monkeypatch):
    ceiling = cli._COUNT_CEILING
    assert ceiling == 2**63
    # _refuse reads no count after their sum passes the ceiling, or the cap
    # when that is higher, and names the ceiling plus one as a bound
    counts = iter([ceiling - 1, 1, 1, 5])
    with pytest.raises(ValueError) as exc:
        cli._refuse(0, counts, "q makes", "terms")
    assert str(exc.value) == ("q makes at least 9,223,372,036,854,775,809 terms, more than "
                              "the cap of 0; pass --max-terms 9223372036854775809 to count them")
    assert list(counts) == [5]
    cli._refuse(2 * ceiling, [ceiling, 1, 1], "q makes", "terms")  # under the cap: no refusal
    with pytest.raises(ValueError, match="^q makes 7 terms, more than the cap of 6; "):
        cli._refuse(6, [3, 4], "q makes", "terms")
    monkeypatch.setattr(cli, "betti_table", None)  # a refused query never computes
    code, out, err = run(capsys, ["betti", "-m", "10000", "-n", "10000", "-a", "1", "-b", "1"])
    assert (code, out) == (1, "")
    assert err == ("error: betti -m 10000 -n 10000 -a 1 -b 1 makes at least "
                   "9,223,372,036,854,775,809 terms, more than the cap of 200,000; "
                   "pass --max-terms 9223372036854775809 to count them\n")
    # a cap past the ceiling raises it, and a count past that cap names the
    # cap plus one: 34x34 a=b=1 makes C(68, 34) - 1 terms, about 2.8 * 10^19
    assert ceiling < 10**19 < sum(cli._block_terms(cli.MatrixContext(34, 34), 1, 1))
    code, out, err = run(capsys, ["betti", "-m", "34", "-n", "34", "-a", "1", "-b", "1",
                                  "--max-terms", str(10**19)])
    assert (code, out) == (1, "")
    assert err == ("error: betti -m 34 -n 34 -a 1 -b 1 makes at least "
                   "10,000,000,000,000,000,001 terms, more than the cap of "
                   "10,000,000,000,000,000,000; pass --max-terms 10000000000000000001 "
                   "to count them\n")
    # an exact count past the ceiling, qbinom's closed form, is named as the bound
    code, out, err = run(capsys, ["qbinom", str(10**10), str(10**9)])
    assert (code, out) == (1, "") and "makes at least 9,223,372,036,854,775,809 " in err


def test_lc_table_update_count_is_the_loops_count():
    for n in range(1, 9):
        for m in (n, n + 2):
            ctx = cli.MatrixContext(m, n)
            for p in range(1, n + 1):
                want = sum(_qbinom_loop_updates(n - s - 1, p - 1 - s) for s in range(p))
                assert loccoh._lc_table_updates(ctx, p) == want, (m, n, p)


def test_lc_table_update_count_is_the_sum_of_the_factor_counts():
    # the closed form over the factors D_s equals the sum of their Gauss
    # polynomials' counts, one per factor, for every D = n - p
    for n in range(1, 41):
        ctx = cli.MatrixContext(n + 1, n)
        for p in range(1, n + 1):
            want = sum(cli._qbinomial_updates(n - s - 1, p - 1 - s) for s in range(p))
            assert loccoh._lc_table_updates(ctx, p) == want, (n, p)


def test_lc_table_refuses_work_past_the_cap_before_starting(capsys, monkeypatch):
    monkeypatch.setattr(cli, "lc_table", None)  # a refused query never computes
    argv = ["lc", "-m", "100000", "-n", "100000", "-p", "50000"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == ("error: lc -m 100000 -n 100000 -p 50000 makes 4,166,437,505,833,275,000 "
                   "coefficient updates, more than the cap of 20,000,000; "
                   "pass --max-terms 4166437505833275000 to run it\n")
    code, out, err = run(capsys, [*argv, "--format", "json"])
    assert code == 1 and "4,166,437,505,833,275,000" in json.loads(out)["error"] and err == ""
    # at p = n every factor makes no update, and the count is its outer steps
    code, out, err = run(capsys, ["lc", "-m", "10000000", "-n", "10000000", "-p", "10000000"])
    assert (code, out) == (1, "")
    assert err == ("error: lc -m 10000000 -n 10000000 -p 10000000 makes 49,999,995,000,000 "
                   "coefficient updates, more than the cap of 20,000,000; "
                   "pass --max-terms 49999995000000 to run it\n")
    # p is checked before it is counted, with lc_table's message
    code, out, err = run(capsys, ["lc", "-m", "3", "-n", "3", "-p", "4"])
    assert (code, out) == (1, "") and err.startswith("error: minor size p must be ")
    monkeypatch.undo()
    small = ["lc", "-m", "9", "-n", "7", "-p", "4"]
    count = loccoh._lc_table_updates(cli.MatrixContext(9, 7), 4)
    code, out, err = run(capsys, [*small, "--max-terms", str(count - 1)])
    assert (code, out) == (1, "") and f"makes {count} coefficient updates" in err
    code, out, _ = run(capsys, [*small, "--max-terms", str(count)])
    assert code == 0 and out == run(capsys, small)[1]
    code, out, err = run(capsys, [*small, "--max-terms", "-1"])
    assert (code, out, err) == (1, "", "error: --max-terms must be at least 0, got -1\n")


@pytest.mark.parametrize("argv", [
    ["lc", "-m", "100000", "-n", "100000", "-p", "50000"],
    ["lc", "-m", "6", "-n", "6", "-p", "1", "--ds", "0", "--window=-200..-36"],
    ["betti", "-m", "12", "-n", "12", "-a", "1", "-b", "1"],
    ["betti", "-m", "12", "-n", "12", "-a", "2", "-b", "2", "--format", "csv"],
    ["qbinom", "800", "400"],
    # past 2**63 a count stops and names a bound: without the ceiling the
    # first of these runs for about 28 s, the second writes a 2,917-character
    # line, and the last two end in Python's int-to-str digit limit; the
    # third is one closed-form count past the ceiling
    ["betti", "-m", "10000", "-n", "10000", "-a", "1", "-b", "1"],
    ["betti", "-m", "2000", "-n", "2000", "-a", "1", "-b", "1"],
    ["lc", "-m", "10000000", "-n", "10000000", "-p", "5000000"],
    ["qbinom", "1" + "0" * 2000, "5" + "0" * 1999],
    ["lc", "-m", "3", "-n", "3", "-p", "1", "--ds", "0", f"--window=-1{'0' * 2200}..-9"],
    # Gauss polynomials that make no coefficient update but loop a times;
    # without the outer steps in their count each runs past 20 s
    ["lc", "-m", "100000", "-n", "100000", "-p", "100000"],
    # 10^7 factors: counted one at a time, their sum takes about 15 s
    ["lc", "-m", "10000000", "-n", "10000000", "-p", "10000000"],
    ["qbinom", "1000000000", "1000000000"],
    # distinct entries: 600 ran about 14 s and ended in the int-to-str
    # digit limit, and 3,000 ran past 20 s
    ["schurdim", "-N", "600", "--weight", str(list(range(600, 0, -1)))],
    ["schurdim", "-N", "3000", "--weight", str(list(range(3000, 0, -1)))],
])
def test_refusals_are_one_line_in_a_whole_process_under_a_second(argv):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "glinv", *argv],
                          capture_output=True, text=True, timeout=30, env=ENV)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "--max-terms" in proc.stderr
    assert elapsed < 1, elapsed


def test_schurdim(capsys):
    code, out, _ = run(capsys, ["schurdim", "-N", "3", "--weight", "[2,1]",
                                "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"N": 3, "weight": [2, 1], "dim": 8}


def test_schurdim_keeps_its_bytes(capsys):
    argv = ["schurdim", "-N", "3", "--weight", "[2,1]"]
    assert run(capsys, argv) == (0, "dim = 8\n", "")
    assert run(capsys, [*argv, "--format", "json"]) == (
        0, '{"N": 3, "dim": 8, "weight": [2, 1]}\n', "")


def _horner(digits: str) -> int:
    """The int of a decimal string, read 1,000 digits at a time, each read
    under Python's int-to-str digit limit."""
    value = 0
    for start in range(0, len(digits), 1000):
        piece = digits[start:start + 1000]
        value = value * 10**len(piece) + int(piece)
    return value


def test_schurdim_prints_every_digit_past_the_int_to_str_limit(capsys):
    # the staircase (200, 199, ..., 1) in GL_200 has dimension 2^19900, with
    # 5,991 digits: str() of it raises under the default limit of 4,300
    argv = ["schurdim", "-N", "200", "--weight", json.dumps(list(range(200, 0, -1)))]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "") and out.startswith("dim = ") and out.endswith("\n")
    digits = out[len("dim = "):-1]
    assert len(digits) == 5991 and digits.isdigit() and _horner(digits) == 1 << 19900
    code, out, err = run(capsys, [*argv, "--format", "json"])
    assert (code, err) == (0, "")
    assert out == '{"N": 200, "dim": %s, "weight": %s}\n' % (digits, list(range(200, 0, -1)))


def test_decimal_writes_every_digit():
    # pieces of limit - 1 digits, zero-filled: a piece of zeros or with
    # leading zeros keeps its width
    for value in (0, 7, 10**4299 - 1, 10**4299, 10**4300 - 1, 10**4300, 10**8600 + 7,
                  10**8598 * 3 + 10**5, 3**20000):
        text = cli._decimal(value)
        assert text.isdigit() and (text == "0" or text[0] != "0") and _horner(text) == value


def test_schurdim_factor_count_follows_the_pairs_and_the_tail():
    # k(k - 1)/2 pairs of the k entries before the zero tail, and
    # min(w_i, N - k) per row when a tail is there
    for w, N, count in [((), 5, 0), ((1,), 100000, 1), ((483238, 8, 2), 10, 3 + 7 + 7 + 2),
                        ((3, 2, 1), 3, 3), ((-1, -2, -3), 3, 3), ((2, 0, -1), 3, 3),
                        ((5, 5, 5, 5), 6, 6 + 4 * 2)]:
        assert cli._dim_schur_factors(w + (0,) * (N - len(w)), N) == count, (w, N)


def test_schurdim_refuses_work_past_the_cap_before_starting(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_dim_schur", None)  # a refused query never computes
    code, out, err = run(capsys, ["schurdim", "-N", "600", "--weight",
                                  str(list(range(600, 0, -1)))])
    assert (code, out) == (1, "")
    assert err == ("error: schurdim -N 600 multiplies 179,700 factors, more than the cap of "
                   "40,000; pass --max-terms 179700 to run it\n")
    monkeypatch.undo()
    small = ["schurdim", "-N", "10", "--weight", "[483238,8,2]"]
    code, out, err = run(capsys, [*small, "--max-terms", "18"])
    assert (code, out) == (1, "") and "multiplies 19 factors" in err and "--max-terms 19 " in err
    code, out, _ = run(capsys, [*small, "--max-terms", "19"])
    assert code == 0 and out == f"dim = {dim_schur((483238, 8, 2), 10)}\n"
    code, out, err = run(capsys, [*small, "--max-terms", "-1"])
    assert (code, out, err) == (1, "", "error: --max-terms must be at least 0, got -1\n")
    # the weight and N are checked before the count
    code, out, err = run(capsys, ["schurdim", "-N", "2", "--weight", "[1,1,1]", "--max-terms", "0"])
    assert (code, out, err) == (1, "", "error: (1, 1, 1) is longer than 2\n")


SELFTEST_NAMES = [
    "conjugate", "qbinomial", "attach", "dual-weight", "schur-dimensions", "power-tables",
    "saturation-tables", "symbolic-tables", "three-by-three-family", "succ-min",
    "zset-minors", "zset-cube", "zset-square-powers", "ext-one-column", "ext-single-weight",
    "lc-square", "lc-one-column", "ds-one-column", "h-rect", "betti-square",
    "betti-one-column", "regularity",
]


def test_selftest_passes(capsys):
    # the corpus is every check_* function of glinv.golden, in the order written
    code, out, err = run(capsys, ["selftest"])
    assert (code, err) == (0, "")
    assert out == "".join(f"ok {name}\n" for name in SELFTEST_NAMES) + "22/22 checks passed\n"


@pytest.mark.parametrize("check, line", [
    # an exception other than an assertion is one FAIL line, never a traceback
    pytest.param(lambda: 1 / 0, "FAIL bad: ZeroDivisionError: division by zero",
                 id="other-exception"),
    # a failed pin names what it checked, the value wanted and the value got
    pytest.param(lambda: golden._eq(1, 2, "one"), "FAIL bad: one: expected 2, got 1",
                 id="failed-pin"),
])
def test_selftest_reports_a_check_that_raises(capsys, monkeypatch, check, line):
    checks = (golden.GOLDEN_CHECKS[0], ("bad", check))
    monkeypatch.setattr(golden, "GOLDEN_CHECKS", checks)
    code, out, err = run(capsys, ["selftest"])
    assert code == 1
    assert out.splitlines() == [f"ok {checks[0][0]}", line, "1/2 checks passed"]
    assert err == ""


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, ["power", "-m", "3", "-n", "3", "-p", "4", "-d", "1"])
    assert code == 1
    assert err.startswith("error:")
    code, out, _ = run(capsys, ["power", "-m", "3", "-n", "3", "-p", "4", "-d", "1",
                                "--format", "json"])
    assert code == 1
    assert "error" in json.loads(out)


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["power", "-m", "3", "-n", "3", "-p", "2"])
    assert exc.value.code == 2
    assert main([]) == 2


def test_repeated_runs_are_byte_identical(capsys):
    argv = ["betti", "-m", "3", "-n", "3", "-a", "2", "-b", "2",
            "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    argv = ["zset", "-m", "4", "-n", "4", "--kind", "power", "-p", "3", "-d", "3"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "glinv", "selftest"],
        capture_output=True, text=True, env=ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("22/22 checks passed")
    proc = subprocess.run(
        [sys.executable, "-m", "glinv", "power", "-m", "3", "-n", "3",
         "-p", "2", "-d", "3", "--format", "json"],
        capture_output=True, text=True, env=ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout == POWER_JSON + "\n"


def test_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, because pytest itself imports both; -S keeps out
    # what site-packages hooks would load
    code = ("import sys, glinv.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_valid_calls_do_not_import_argparse():
    # a fresh interpreter, as in the test above; help still comes from argparse
    code = ("import sys, glinv.cli; status = glinv.cli.main(['reg', '-m', '3', '-n', '3', "
            "'--kind', 'power', '-p', '2', '-d', '3']); print(status, 'argparse' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=ENV)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "regularity = 6\n0 False\n"
    proc = subprocess.run([sys.executable, "-S", "-m", "glinv", "reg", "-h"],
                          capture_output=True, text=True, env=ENV)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: glinv reg [-h]") and "--kind" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["normalize", "-m", "3", "-n", "3", "--gens", "[[2.7,1]]"],
    ["normalize", "-m", "3", "-n", "3", "--gens", "[[true]]"],
    ["normalize", "-m", "3", "-n", "3", "--gens", '[[2,"1"]]'],
    ["compare", "-m", "3", "-n", "3", "--left", "[[1.0]]", "--right", "[[1]]"],
    ["compare", "-m", "3", "-n", "3", "--left", "[[1]]", "--right", "[[false]]"],
    ["schurdim", "-N", "3", "--weight", "[1.5]"],
    ["schurdim", "-N", "3", "--weight", "[true,0]"],
])
def test_non_integer_json_is_a_domain_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


IDEAL_FILE = '{"m": 3, "n": 3, "gens": [[2, 2]]}'


@pytest.mark.parametrize("argv, content, code, line", [
    # an ideal comes from exactly one of --in, --kind and --gens; -m and -n
    # come from the file under --in, and -p and -d go with --kind
    (["reg", "--kind", "power", "-p", "2", "-d", "1", "-m", "3", "-n", "3", "--gens", "[[1]]"],
     None, 2, "usage error: give one ideal source, not --kind and --gens"),
    (["normalize", "--gens", "[[1]]", "--in", "FILE"],
     IDEAL_FILE, 2, "usage error: give one ideal source, not --in and --gens"),
    (["zset", "--in", "FILE", "--kind", "power", "-p", "2", "-d", "2", "--gens", "[[1]]"],
     IDEAL_FILE, 2, "usage error: give one ideal source, not --in, --kind and --gens"),
    (["ext", "--in", "FILE", "--kind", "symbolic", "--window=0..1"],
     IDEAL_FILE, 2, "usage error: give one ideal source, not --in and --kind"),
    (["reg", "--in", "FILE", "-m", "9", "-n", "2"],
     IDEAL_FILE, 2, "usage error: -m and -n given with --in, whose file carries m and n"),
    (["saturate", "--in", "FILE", "-n", "3", "-p", "2"],
     IDEAL_FILE, 2, "usage error: -n given with --in, whose file carries m and n"),
    (["reg", "--gens", "[[1]]", "-m", "3", "-n", "3", "-p", "2", "-d", "5"],
     None, 2, "usage error: -p and -d given without --kind"),
    (["zset", "--gens", "[[1]]", "-m", "3", "-n", "3", "-p", "2"],
     None, 2, "usage error: -p given without --kind"),
    (["ext", "--in", "FILE", "-d", "2", "--window=0..1"],
     IDEAL_FILE, 2, "usage error: -d given without --kind"),
    (["zset", "-m", "3", "-n", "3", "--kind", "power", "-p", "2"],
     None, 2, "usage error: --kind needs -p and -d"),
    (["zset", "-m", "3", "-n", "3"], None, 2, "usage error: need --gens, --kind, or --in FILE"),
    (["normalize", "-m", "3", "-n", "3", "--gens", "[1]"],
     None, 1, "error: generators must be a JSON list of integer lists"),
    (["normalize", "--in", "FILE"], "[]", 1,
     "error: ideal file must carry keys m, n, gens: list indices must be integers or slices, "
     "not str"),
    (["normalize", "--in", "FILE"], '{"m": 3}', 1,
     "error: ideal file must carry keys m, n, gens: 'n'"),
    (["schurdim", "-N", "3", "--weight", "x"],
     None, 1, "error: weight is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    (["schurdim", "-N", "3", "--weight", "3"],
     None, 1, "error: weight must be a JSON list of integers"),
    # an empty --in is a source: with --gens it is a second one, alone it
    # names a file that cannot be read
    (["normalize", "--in", "", "-m", "3", "-n", "3", "--gens", "[[1]]"],
     None, 2, "usage error: give one ideal source, not --in and --gens"),
    (["zset", "--in", ""], None, 1, "error: cannot read ideal file : No such file or directory"),
])
def test_input_errors_are_one_pinned_line(tmp_path, capsys, argv, content, code, line):
    # FILE in argv names a file that holds content
    src = tmp_path / "ideal.json"
    if content is not None:
        src.write_text(content)
    argv = [str(src) if word == "FILE" else word for word in argv]
    assert run(capsys, argv) == (code, "", line + "\n")


@pytest.mark.parametrize("argv, out", [
    (["reg", "--kind", "power", "-p", "2", "-d", "1", "-m", "3", "-n", "3"], "regularity = 3\n"),
    (["reg", "--gens", "[[1]]", "-m", "3", "-n", "3"], "regularity = 1\n"),
    (["reg", "--in", "FILE"], "regularity = 6\n"),
    (["saturate", "--gens", "[[2,2]]", "-m", "3", "-n", "3", "-p", "2"],
     "m = 3, n = 3\nunit ideal (generated by the empty minor)\n"),
    (["saturate", "--in", "FILE", "-p", "2"],
     "m = 3, n = 3\nunit ideal (generated by the empty minor)\n"),
    (["zset", "--in", "FILE", "--format", "csv"], "l,z\n1,\n1,1 1\n1,1 1 1\n"),
])
def test_single_source_calls_run(tmp_path, capsys, argv, out):
    # the calls of the table above with their extra option dropped
    src = tmp_path / "ideal.json"
    src.write_text(IDEAL_FILE)
    argv = [str(src) if word == "FILE" else word for word in argv]
    assert run(capsys, argv) == (0, out, "")


@pytest.mark.parametrize("payload", [
    {"m": 3, "n": 3, "gens": [[2.7, 1]]},
    {"m": 3, "n": 3, "gens": [[True]]},
    {"m": 3.0, "n": 3, "gens": [[1]]},
    {"m": 3, "n": True, "gens": [[1]]},
    {"m": "3", "n": 3, "gens": [[1]]},
])
def test_non_integer_ideal_file_is_a_domain_error(tmp_path, capsys, payload):
    src = tmp_path / "ideal.json"
    src.write_text(json.dumps(payload))
    code, out, err = run(capsys, ["normalize", "--in", str(src)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_missing_ideal_file_is_a_domain_error(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    code, out, err = run(capsys, ["zset", "--in", str(missing)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert str(missing) in err
    code, out, err = run(capsys, ["zset", "--in", str(tmp_path)])
    assert code == 1
    assert err.startswith("error:") and str(tmp_path) in err


@pytest.mark.parametrize("content", ["", "{m: 3}", '{"m": 3, "n": 3', b"\xd0\x00"])
def test_ideal_file_that_is_not_json_is_a_domain_error(tmp_path, capsys, monkeypatch, content):
    src = tmp_path / "ideal.json"
    if isinstance(content, bytes):
        src.write_bytes(content)
    else:
        src.write_text(content)
    code, out, err = run(capsys, ["zset", "--in", str(src)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: ideal file {src} is not valid JSON: ")
    assert len(err.splitlines()) == 1
    monkeypatch.setattr(sys, "stdin", io.StringIO(src.read_text(errors="replace")))
    code, out, err = run(capsys, ["zset", "--in", "-"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ideal file - is not valid JSON: ")
    assert len(err.splitlines()) == 1


def test_ds_csv_is_refused_before_computing():
    # the D_0 character of this window takes minutes; csv is refused first
    proc = subprocess.run(
        [sys.executable, "-m", "glinv", "lc", "-m", "6", "-n", "6", "-p", "1",
         "--ds", "0", "--window=-200..-36", "--format", "csv"],
        capture_output=True, text=True, timeout=30, env=ENV,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "usage error: csv output is not defined for --ds\n"


def test_closed_stdout_ends_quietly():
    # each output overflows the pipe buffer, so the writer is still blocked
    # on the pipe when the reader goes away: 134 kB of Betti JSON, and
    # 113,588 bytes of a pretty character and 162,813 of its JSON, each
    # printed as one string. Under python -u a write that the closing pipe
    # cuts short returns without an error, so every output runs with
    # buffered and with unbuffered stdout
    buffered = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    ext = ["ext", "--kind", "saturated", "-p", "3", "-d", "2", "-m", "6", "-n", "5",
           "--window=-90..40"]
    for argv in (["betti", "-m", "6", "-n", "6", "-a", "2", "-b", "2", "--format", "json"],
                 ext, [*ext, "--format", "json"]):
        for env in (buffered, dict(buffered, PYTHONUNBUFFERED="1")):
            proc = subprocess.Popen(
                [sys.executable, "-m", "glinv", *argv],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            )
            assert proc.stdout.read(100)
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 1, (argv[0], env.get("PYTHONUNBUFFERED"))
            assert err == b""


# a valid call of every verb, arguments after the verb
VALID = {
    "normalize": ["-m", "3", "-n", "3", "--gens", "[[2,1]]"],
    "compare": ["-m", "3", "-n", "3", "--left", "[[1]]", "--right", "[[1,1]]"],
    "power": ["-m", "3", "-n", "3", "-p", "2", "-d", "2"],
    "symbolic": ["-m", "3", "-n", "3", "-p", "2", "-d", "2"],
    "saturated": ["-m", "3", "-n", "3", "-p", "2", "-d", "2"],
    "saturate": ["-m", "3", "-n", "3", "--gens", "[[2,1]]", "-p", "2"],
    "zset": ["-m", "3", "-n", "3", "--kind", "power", "-p", "2", "-d", "2"],
    "ext": ["-m", "3", "-n", "3", "--kind", "power", "-p", "3", "-d", "1",
            "--window=-4..-3"],
    "reg": ["-m", "3", "-n", "3", "--kind", "power", "-p", "2", "-d", "3"],
    "lc": ["-m", "3", "-n", "3", "-p", "2"],
    "betti": ["-m", "3", "-n", "3", "-a", "2", "-b", "1"],
    "schurdim": ["-N", "3", "--weight", "[2,1]"],
    "qbinom": ["4", "2"],
    "selftest": [],
}


def _namespace(capsys, parse, argv):
    """vars of the namespace parse(argv) returns and exit status 0, or None
    and the status of the SystemExit it raises."""
    try:
        namespace, code = vars(parse(argv)), 0
    except SystemExit as exc:
        namespace, code = None, exc.code
    capsys.readouterr()
    return namespace, code


def _attached(argv):
    """argv with each option's value attached to it: -m3, --kind=power."""
    out, i = [], 0
    while i < len(argv):
        word = argv[i]
        if word.startswith("-") and "=" not in word and i + 1 < len(argv):
            value = argv[i + 1]
            out.append(f"{word}={value}" if word.startswith("--") else word + value)
            i += 2
        else:
            out.append(word)
            i += 1
    return out


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_one_verb_parser_matches_full_parser(capsys, monkeypatch, verb):
    # main reads a plain verb call from VERBS and leaves the rest to the
    # full parser; the namespace, or the exit status of a refused parse,
    # and main's exit code, stdout and stderr must be those of a parse by
    # the full parser
    assert len(VERBS) == 14 and set(VALID) == set(VERBS)
    valid = VALID[verb]
    # every verb whose arguments are all options is read without argparse
    assert (cli._plain_args([verb, *valid]) is None) == (verb == "qbinom")
    argvs = [
        [verb, *valid], [verb, "-h"], [verb], [verb, "--bogus"], [verb, *valid, "extra"],
        [verb, *valid, "--format", "xml"], [verb, *valid, "--form", "json"],
        [verb, "--", *valid], [verb, *valid, "--", "extra", "words"],
        [verb, *_attached(valid)], [verb, *valid, "-d", "-1"],
        ["ideal", verb, *valid, "extra"],
        # a repeated option: the last value wins
        [verb, "--format", "json", *valid, "--format", "pretty"], [verb, *valid, *valid],
        [verb, *valid, "--gens="], [verb, "-m=3", *valid],
        *([verb, *valid, "-m", value] for value in ("+7", " 7", "1_0", "٣")),
        [verb, *valid, "--gens", "--kind"], [verb, *valid, "--kind=bogus"],
        [verb, *valid, "-m", "-"],
    ]
    for argv in argvs:
        parsed = argv[1:] if argv[0] == "ideal" else argv
        one = _namespace(capsys, cli._parse_args, parsed)
        assert one == _namespace(capsys, _build_parser().parse_args, parsed), argv
        one = run(capsys, argv)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parse_args", lambda words: _build_parser().parse_args(words))
            full = run(capsys, argv)
        assert one == full, argv


# valid calls interleaved with help and usage errors, which exit through
# SystemExit from the reused parsers
LEAK_SEQUENCE = [
    ["power", "-m", "3", "-n", "3", "-p", "2", "-d", "2"],
    ["-h"],
    ["zset", "-m", "3", "-n", "3", "--gens", "[[1,1]]"],
    ["reg", "-h"],
    ["reg", "--bogus"],
    ["reg", "-m", "3", "-n", "3", "--kind", "symbolic", "-p", "2", "-d", "3",
     "--format", "json"],
    ["reg", "-p", "x"],
    ["lc", "-m", "3", "-n", "3", "-p", "2", "--format", "xml"],
    ["lc", "-m", "3", "-n", "3", "-p", "2"],
    ["qbinom", "5", "2", "extra"],
    ["power", "-m", "3"],
    ["frobnicate"],
    ["qbinom", "5", "2"],
    [],
]


def test_calls_in_one_process_do_not_leak(capsys, monkeypatch):
    # each pass has its own help width, which a reused parser must read
    # when it formats, not keep from the call that built it
    passes = [(LEAK_SEQUENCE, "80"), (LEAK_SEQUENCE[::-1], "64")]
    for sequence, columns in passes:
        alone = {}
        for argv in sequence:
            proc = subprocess.run([sys.executable, "-m", "glinv", *argv],
                                  capture_output=True, text=True,
                                  env=dict(ENV, COLUMNS=columns))
            alone[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr)
        monkeypatch.setenv("COLUMNS", columns)
        for argv in sequence:
            assert run(capsys, argv) == alone[tuple(argv)], argv


def test_parser_cache_is_bounded(capsys):
    _build_parser.cache_clear()
    for argv in [[verb, "-h"] for verb in VERBS] + [[f"word{i}"] for i in range(20)]:
        with pytest.raises(SystemExit):
            main(argv)
    for verb, valid in VALID.items():
        run(capsys, [verb, *valid])
    assert _build_parser.cache_info().currsize == 1
    assert cli._option_table.cache_info().currsize <= len(VERBS)


def test_plain_args_match_the_full_parser_on_a_seeded_fuzz():
    # argvs from every verb's table, good and bad values in every form
    # argparse reads; wherever the reader accepts one, the full parser must
    # give the same namespace
    made, accepted, bad = mismatches(seed=47, per_verb=800)
    assert made == 800 * len(VERBS) and accepted > made // 10
    assert bad == []
