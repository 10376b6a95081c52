import argparse
import bz2
import gzip
import json
import lzma
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cnfscope import graph
from cnfscope.cli import build_parser, main
from cnfscope.cnf import parse_dimacs, random_3cnf, write_dimacs
from cnfscope.features import (
    FeatureConfig,
    FeatureMatrix,
    FeatureRow,
    extract_features,
    matrix_from_csv,
)
from oracles import matrix_to_json


@pytest.fixture()
def cnf_file(tmp_path):
    f = random_3cnf(30, 120, seed=1)
    p = tmp_path / "small.cnf"
    p.write_text(write_dimacs(f))
    return p


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_three_files(self, tmp_path, capsys):
        code, _, _ = _run(capsys, "gen", tmp_path / "out", "--n", 10,
                          "--m", 20, "--count", 3, "--seed", 5)
        assert code == 0
        files = sorted(p.name for p in (tmp_path / "out").glob("*.cnf"))
        assert files == ["rand_n10_m20_s0.cnf", "rand_n10_m20_s1.cnf",
                         "rand_n10_m20_s2.cnf"]

    def test_regeneration_byte_identical(self, tmp_path, capsys):
        for d in ("a", "b"):
            _run(capsys, "gen", tmp_path / d, "--n", 12, "--m", 30,
                 "--count", 2, "--seed", 7)
        for k in range(2):
            fa = (tmp_path / "a" / f"rand_n12_m30_s{k}.cnf").read_bytes()
            fb = (tmp_path / "b" / f"rand_n12_m30_s{k}.cnf").read_bytes()
            assert fa == fb

    def test_text_of_write_dimacs(self, tmp_path, capsys):
        """Each file holds the bytes write_dimacs gives the formula, written
        one range of clauses at a time."""
        _run(capsys, "gen", tmp_path, "--n", 3000, "--m", 30000, "--count", 2,
             "--seed", 4)
        for k in range(2):
            want = write_dimacs(random_3cnf(3000, 30000, 4 + k)).encode()
            assert (tmp_path / f"rand_n3000_m30000_s{k}.cnf").read_bytes() == want

    def test_n_too_small(self, tmp_path, capsys):
        code, _, err = _run(capsys, "gen", tmp_path / "x", "--n", 2, "--m", 5)
        assert code == 1
        assert "n >= 3" in err

    @pytest.mark.parametrize("value", ("0", "-2", "abc"))
    def test_count_usage_error(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            _run(capsys, "gen", tmp_path / "out", "--n", 10, "--m", 20,
                 f"--count={value}")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --count: expected a positive integer" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n,m,message", [
        (10, 0, "m must be positive"),
        (10, -3, "m must be positive"),
        (2, 5, "random 3-CNF needs n >= 3"),
    ])
    def test_bad_size_leaves_no_dir(self, tmp_path, capsys, n, m, message):
        code, out, err = _run(capsys, "gen", tmp_path / "out", "--n", n,
                              "--m", m)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CNFSCOPE_SEED", "101")
        _run(capsys, "gen", tmp_path / "e1", "--n", 10, "--m", 20)
        monkeypatch.setenv("CNFSCOPE_SEED", "202")
        _run(capsys, "gen", tmp_path / "e2", "--n", 10, "--m", 20)
        a = (tmp_path / "e1" / "rand_n10_m20_s0.cnf").read_bytes()
        b = (tmp_path / "e2" / "rand_n10_m20_s0.cnf").read_bytes()
        assert a != b


class TestParseErrors:
    """A malformed formula or trace is one error line that names the file
    once (exit 1); a features batch names it once in its warning."""

    @pytest.mark.parametrize("text, message", (
        (b"p cnf 3 1\n1 5 0\n", "literal 5 out of range in clause 0 (n=3)"),
        (b"p cnf 1 1\n1 \xe9 0\n", r"bad token '\\xe9'"),
    ), ids=("range", "utf8"))
    def test_formula(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.cnf"
        bad.write_bytes(text)
        trace = tmp_path / "ok.trace"
        trace.write_text("t 1\n1 0\n")
        for argv in (["ndr", bad], ["evolution", bad, "--trace", trace]):
            assert _run(capsys, *argv) == (1, "", f"error: {bad}: {message}\n")
        code, _, err = _run(capsys, "features", bad, "--seed", 1)
        assert (code, err.count("bad.cnf")) == (0, 1)
        assert err.startswith("warning: bad.cnf: ")

    def test_trace(self, cnf_file, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("t x\n1 0\n")
        assert _run(capsys, "evolution", cnf_file, "--trace", bad) == (
            1, "", f"error: {bad}: malformed checkpoint line: 't x'\n")

    def test_latin1_comment(self, tmp_path, capsys):
        p = tmp_path / "latin1.cnf"
        p.write_bytes(b"c caf\xe9\np cnf 3 2\n1 -2 0\n2 3 0\n")
        code, out, _ = _run(capsys, "ndr", p)
        assert code == 0 and out.startswith("r,N,N_norm\n")


class TestFeatures:
    def test_single_file(self, cnf_file, capsys):
        code, out, _ = _run(capsys, "features", cnf_file, "--seed", 1)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("instance,family,alpha")
        assert len(lines) == 2
        assert lines[1].startswith("small.cnf,")

    def test_corrupt_file_batch_continue(self, cnf_file, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_text("not a cnf at all\n")
        code, out, err = _run(capsys, "features", cnf_file, bad, "--seed", 1)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert "bad.cnf,ERROR" in out
        assert "warning" in err

    def test_comma_names_quoted(self, tmp_path, capsys):
        good = tmp_path / "a,b.cnf"
        good.write_text(write_dimacs(random_3cnf(20, 80, seed=4)))
        bad = tmp_path / "c,d.cnf"
        bad.write_text("not a cnf at all\n")
        code, out, _ = _run(capsys, "features", good, bad, "--seed", 1)
        assert code == 0
        assert '\n"c,d.cnf",ERROR,,,,,,,,,,\n' in out
        with pytest.warns(UserWarning, match="ERROR row"):
            matrix = matrix_from_csv(out, skip_errors=True)
        assert matrix.instance_ids == ["a,b.cnf"]

    def test_workers_identical_output(self, tmp_path, capsys):
        paths = []
        for k in range(4):
            f = random_3cnf(25, 100, seed=k)
            p = tmp_path / f"w{k}.cnf"
            p.write_text(write_dimacs(f))
            paths.append(p)
        _, out1, _ = _run(capsys, "features", *paths, "--workers", 1, "--seed", 2)
        _, out4, _ = _run(capsys, "features", *paths, "--workers", 4, "--seed", 2)
        assert out1 == out4

    def test_json_format(self, cnf_file, capsys):
        code, out, _ = _run(capsys, "features", cnf_file, "--format", "json",
                            "--seed", 1)
        assert code == 0
        data = json.loads(out)
        assert data[0]["instance"] == "small.cnf"
        assert "alpha" in data[0]

    def test_json_row_matches_matrix_to_json(self, cnf_file, capsys):
        _, out, _ = _run(capsys, "features", cnf_file, "--format", "json",
                         "--seed", 1)
        vec = extract_features(parse_dimacs(cnf_file.read_text()),
                               FeatureConfig(seed=1))
        row = FeatureRow("small.cnf", None, vec)
        assert out == matrix_to_json(FeatureMatrix([row])) + "\n"

    def test_family_from_dir(self, tmp_path, capsys):
        fam = tmp_path / "crypto"
        fam.mkdir()
        p = fam / "x.cnf"
        p.write_text(write_dimacs(random_3cnf(20, 80, seed=3)))
        _, out, _ = _run(capsys, "features", p, "--family-from-dir", "--seed", 1)
        assert out.splitlines()[1].startswith("x.cnf,crypto,")

    def test_missing_file(self, capsys):
        code, _, err = _run(capsys, "features", "/nope/missing.cnf")
        assert code == 1
        assert "not readable" in err

    def test_directory(self, tmp_path, capsys):
        assert _run(capsys, "features", tmp_path) == (
            1, "", f"error: input not readable: {tmp_path}\n")


@pytest.fixture()
def pipe():
    """pipe(data): the /dev/fd path of a pipe holding data."""
    fds = []

    def make(data: bytes) -> str:
        r, w = os.pipe()
        fds.append(r)
        os.write(w, data)
        os.close(w)
        return f"/dev/fd/{r}"
    yield make
    for fd in fds:
        os.close(fd)


class TestPipes:
    """A pipe reads as the file it carries: `cat f.cnf | cnfscope ndr
    /dev/stdin` prints what `cnfscope ndr f.cnf` prints."""

    def test_ndr(self, cnf_file, capsys, pipe):
        want = _run(capsys, "ndr", cnf_file)
        assert want[0] == 0
        assert _run(capsys, "ndr", pipe(cnf_file.read_bytes())) == want

    def test_evolution(self, cnf_file, tmp_path, capsys, pipe):
        trace = tmp_path / "run.trace"
        trace.write_text("t 10\n1 -2 3 0\n4 5 0\nt 20\n-6 7 8 0\n")
        want = _run(capsys, "evolution", cnf_file, "--trace", trace)
        assert want[0] == 0
        got = _run(capsys, "evolution", pipe(cnf_file.read_bytes()),
                   "--trace", pipe(trace.read_bytes()))
        assert got == want


# Run as a script: extract_features SIGKILLs its own process for formulas
# over 13 variables, as the out-of-memory killer would. Spawned workers import
# the script as __mp_main__, so the patch reaches them too.
_KILLER = """
import os, signal, sys
from cnfscope import cli, features
real = features.extract_features
def killer(formula, config=None):
    if formula.num_vars == 13:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(formula, config)
features.extract_features = killer
if __name__ == "__main__":
    sys.exit(cli.main(sys.argv[1:]))
"""


class TestKilledWorker:
    def test_error_row_not_hang(self, tmp_path, capsys):
        dead, alive = tmp_path / "dead.cnf", tmp_path / "alive.cnf"
        dead.write_text(write_dimacs(random_3cnf(13, 50, seed=1)))
        alive.write_text(write_dimacs(random_3cnf(20, 80, seed=2)))
        _, expected, _ = _run(capsys, "features", alive, "--seed", 1)
        script = tmp_path / "killer.py"
        script.write_text(_KILLER)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, str(script), "features", str(dead), str(alive),
             "--workers", "2", "--seed", "1"],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == expected.splitlines()[0]
        assert lines[1] == "dead.cnf,ERROR,,,,,,,,,,"
        assert lines[2] == expected.splitlines()[1]
        assert len(lines) == 3
        assert "warning: dead.cnf: BrokenProcessPool" in proc.stderr


_COMPRESS = {".gz": gzip.compress, ".bz2": bz2.compress, ".xz": lzma.compress}


class TestCompressedInputs:
    @pytest.fixture()
    def plain(self, tmp_path):
        p = tmp_path / "c.cnf"
        p.write_text(write_dimacs(random_3cnf(30, 120, seed=3)))
        return p

    @staticmethod
    def _compressed(path, suffix):
        out = path.with_name(path.name + suffix)
        out.write_bytes(_COMPRESS[suffix](path.read_bytes()))
        return out

    def test_features_same_cells(self, plain, capsys):
        paths = [plain] + [self._compressed(plain, s) for s in _COMPRESS]
        code, out, err = _run(capsys, "features", *paths, "--seed", 1)
        assert code == 0 and "warning" not in err
        rows = out.splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == [p.name for p in paths]
        cells = {r.split(",", 1)[1] for r in rows}
        assert len(cells) == 1 and "ERROR" not in cells.pop()

    @pytest.mark.parametrize("suffix", sorted(_COMPRESS))
    def test_ndr_and_evolution(self, plain, tmp_path, capsys, suffix):
        trace = tmp_path / "t.trace"
        trace.write_text("t 5\n1 2 -3 0\nt 9\n-4 5 0\n")
        for argv in (["ndr", "{cnf}"],
                     ["evolution", "{cnf}", "--trace", "{trace}"]):
            outs = []
            for cnf_path, trace_path in (
                    (plain, trace),
                    (self._compressed(plain, suffix),
                     self._compressed(trace, suffix))):
                args = [a.format(cnf=cnf_path, trace=trace_path) for a in argv]
                code, out, _ = _run(capsys, *args)
                assert code == 0
                outs.append(out)
            assert outs[0] == outs[1]

    @pytest.mark.parametrize("suffix", sorted(_COMPRESS))
    def test_truncated_or_corrupt(self, plain, tmp_path, capsys, suffix):
        """A cut compressed file, and garbage under a compressed suffix, is
        one error line naming the file once, exit 1, for the formula and
        the trace alike; in a features batch it is an ERROR row."""
        data = self._compressed(plain, suffix).read_bytes()
        bad = [tmp_path / f"cut{suffix}", tmp_path / f"junk{suffix}"]
        bad[0].write_bytes(data[:len(data) // 2])
        bad[1].write_bytes(b"garbage data here\n")
        for path in bad:
            for argv in (["ndr", path], ["evolution", path, "--trace", plain],
                         ["evolution", plain, "--trace", path]):
                code, out, err = _run(capsys, *argv)
                assert (code, out) == (1, "")
                assert err.startswith("error: ") and err.count("\n") == 1
                assert err.count(str(path)) == 1
            code, out, _ = _run(capsys, "features", path, plain, "--seed", 1)
            rows = out.splitlines()[1:]
            assert code == 0 and "ERROR" in rows[0] and "ERROR" not in rows[1]


class TestNdr:
    def test_k4_formula_counts(self, tmp_path, capsys):
        # one clause over 4 variables makes the VIG a K4: counts 4, 1
        p = tmp_path / "k4.cnf"
        p.write_text("p cnf 4 2\n1 2 3 4 0\n1 2 0\n")
        code, out, _ = _run(capsys, "ndr", p)
        assert code == 0
        # whole counts bare, then the fit: d = log2(4 / 1), beta = ln(4 / 1)
        assert out == ("r,N,N_norm\n1,4,1.0\n2,1,0.25\n"
                       "d,2.0\nbeta,1.38629436111989\n")

    def test_r_stop(self, cnf_file, capsys):
        code, out, _ = _run(capsys, "ndr", cnf_file, "--r-stop", 3)
        data = [l for l in out.strip().splitlines()
                if l[0].isdigit()]
        assert len(data) <= 3

    def test_cvig_model_json(self, cnf_file, capsys):
        code, out, _ = _run(capsys, "ndr", cnf_file, "--model", "cvig",
                            "--format", "json")
        payload = json.loads(out)
        assert payload["N"][0] == 30 + 120
        assert payload["fit"]["d"] > 0

    def test_cig_model(self, tmp_path, capsys):
        # each pair of the three clauses clashes on one variable: a triangle
        p = tmp_path / "tri.cnf"
        p.write_text("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n")
        code, out, _ = _run(capsys, "ndr", p, "--model", "cig",
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["N"][:2] == [3, 1]

    def test_cig_model_huge_ids(self, tmp_path, capsys):
        # ids near 2**62 put the literal keys past int64; the CIG is the one
        # of the ranked twin, where B, 5, C are 4, 2, 3
        big = 4291692617761627708
        outs = []
        for b, five, c in ((big, 5, big - 1), (4, 2, 3)):
            p = tmp_path / f"cig{b}.cnf"
            p.write_text(f"p cnf {b} 5\n{b} {five} 0\n{five} -{c} 0\n"
                         f"-{c} 1 0\n-1 {c} 0\n{five} -{c} 0\n")
            code, out, _ = _run(capsys, "ndr", p, "--model", "cig",
                                "--format", "json")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["N"] == [5, 2, 2]

    @pytest.mark.parametrize("text, model", (
        [("p cnf 0 0\n", m) for m in ("vig", "cvig", "cig")]
        + [("p cnf 3 0\n", "cig")]))
    def test_graph_without_nodes(self, tmp_path, capsys, text, model):
        p = tmp_path / "empty.cnf"
        p.write_text(text)
        code, out, err = _run(capsys, "ndr", p, "--model", model)
        assert (code, out) == (1, "")
        assert err == "error: graph has no nodes\n"

    def test_no_weighted_flag(self, cnf_file, capsys):
        # covers ignore edge weights: the flag could not change the output
        with pytest.raises(SystemExit) as exc:
            _run(capsys, "ndr", cnf_file, "--weighted")
        assert exc.value.code == 2

    def test_parse_failure(self, tmp_path, capsys):
        p = tmp_path / "bad.cnf"
        p.write_text("garbage\n")
        code, _, err = _run(capsys, "ndr", p)
        assert code == 1
        assert "error" in err

    def test_cvig_empty_clause_and_unused_variables(self, tmp_path, capsys):
        # 5 variables (2 of them unused) and 3 clauses, one of them empty:
        # every node is its own circle at r=1
        p = tmp_path / "f.cnf"
        p.write_text("p cnf 5 3\n1 -2 0\n0\n2 3 0\n")
        code, out, _ = _run(capsys, "ndr", p, "--model", "cvig")
        assert code == 0
        assert out.splitlines()[1] == "1,8,1.0"


class TestOutOfMemory:
    @pytest.mark.parametrize("command, model", (("ndr", "vig"), ("ndr", "cvig"),
                                                ("evolution", "vig")))
    def test_one_error_line(self, cnf_file, tmp_path, capsys, monkeypatch,
                            command, model):
        """A MemoryError, as a header declaring billions of variables
        raises, exits 1 with one error line, not a traceback."""
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 22.4 GiB for an array")

        monkeypatch.setattr(graph, f"build_{model}", exhausted)
        tr = tmp_path / "t.trace"
        tr.write_text("t 10\n1 2 0\n")
        extra = {"ndr": ("--model", model), "evolution": ("--trace", tr)}
        code, out, err = _run(capsys, command, cnf_file, *extra[command])
        assert (code, out) == (1, "")
        assert err == "error: out of memory: Unable to allocate 22.4 GiB for an array\n"

    def test_bare_memory_error(self, cnf_file, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(graph, "build_vig", exhausted)
        code, out, err = _run(capsys, "ndr", cnf_file)
        assert (code, out, err) == (1, "", "error: out of memory\n")


class TestFitWindow:
    """--fit-lo below 1, or --fit-hi not above --fit-lo, is a usage error
    before any file is read."""

    @pytest.mark.parametrize("window", (("--fit-lo", 0), ("--fit-lo", -1),
                                        ("--fit-lo", 5, "--fit-hi", 2),
                                        ("--fit-lo", 3, "--fit-hi", 3)),
                             ids=("lo0", "lo-1", "lo5-hi2", "lo3-hi3"))
    @pytest.mark.parametrize("command", ("features", "ndr", "evolution"))
    def test_usage_error(self, cnf_file, tmp_path, capsys, command, window):
        trace = tmp_path / "t.trace"
        trace.write_text("t 10\n")
        extra = ("--trace", trace) if command == "evolution" else ()
        with pytest.raises(SystemExit) as exc:
            _run(capsys, command, cnf_file, *extra, *window)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--fit-" in err
        assert "Traceback" not in err

    def test_smallest_window_accepted(self, cnf_file, capsys):
        code, out, _ = _run(capsys, "ndr", cnf_file, "--fit-lo", 1,
                            "--fit-hi", 2)
        assert code == 0
        assert "\nd," in out


class TestCountFlags:
    """--workers, --r-stop and --min-leaf take positive integers; 0 and
    below used to run as 1 worker, a one-point curve or a leaf of 1."""

    @pytest.mark.parametrize("value", ("0", "-2", "abc"))
    @pytest.mark.parametrize("command, flag", (
        ("features", "--workers"), ("ndr", "--r-stop"),
        ("classify", "--min-leaf")))
    def test_usage_error(self, cnf_file, capsys, command, flag, value):
        # argparse rejects the value before any input is read
        with pytest.raises(SystemExit) as exc:
            _run(capsys, command, cnf_file, f"{flag}={value}")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a positive integer" in err


class _ReadLog(argparse.Namespace):
    """A Namespace that logs the name of each attribute read from it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._read = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


def _valid_argv(command, cnf_file, tmp_path):
    """A small valid invocation of each subcommand."""
    if command == "evolution":
        trace = tmp_path / "t.trace"
        trace.write_text("t 10\n1 -2 0\n")
        return ("evolution", cnf_file, "--trace", trace)
    if command == "gen":
        return ("gen", tmp_path / "out", "--n", 10, "--m", 20)
    if command in ("classify", "portfolio"):
        feats, runtimes = tmp_path / "f.csv", tmp_path / "rt.csv"
        feats.write_text(
            "instance,family,alpha,q,d,d_b,ratio,beta,beta_b,n,m,r_max\n"
            "a,x,1.0,0.5,2.0,2.1,4.0,,,,,\nb,x,1.1,0.4,2.2,2.0,4.2,,,,,\n"
            "c,y,9.0,0.9,3.0,3.1,8.0,,,,,\nd,y,9.1,0.8,3.2,3.0,8.3,,,,,\n")
        runtimes.write_text("instance,s1,s2\na,1.0,2.0\nb,1.0,2.0\n"
                            "c,2.0,1.0\nd,2.0,1.0\n")
        return ((command, feats) if command == "classify"
                else (command, feats, runtimes))
    return (command, cnf_file)


class TestOptions:
    """Each subcommand defines only options it reads; a flag it used to
    accept and ignore is a usage error."""

    COMMANDS = ("features", "ndr", "evolution", "gen", "classify",
                "portfolio")

    def test_every_option_is_read(self, cnf_file, tmp_path, capsys):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(self.COMMANDS)
        for command in self.COMMANDS:
            argv = [str(a) for a in _valid_argv(command, cnf_file, tmp_path)]
            args = _ReadLog(**vars(parser.parse_args(argv)))
            assert args.func(args) == 0
            options = {a.dest for a in sub.choices[command]._actions
                       if a.dest != "help"}
            assert options - args._read == set(), command
        capsys.readouterr()

    @pytest.mark.parametrize("command, flag", (
        ("features", ("--monotone-clamp",)),
        ("ndr", ("--monotone-clamp",)),
        ("evolution", ("--monotone-clamp",)),
        ("features", ("--ordering", "asc_degree")),
        ("ndr", ("--ordering", "asc_degree")),
        ("evolution", ("--ordering", "desc_degree")),
        ("ndr", ("--seed", "1")),
        ("gen", ("--format", "json")),
        ("gen", ("-o", "x.txt")),
        ("classify", ("--seed", "1")),
        ("classify", ("--format", "csv")),
        ("portfolio", ("--seed", "1")),
        ("portfolio", ("--format", "json"))),
        ids=lambda v: v if isinstance(v, str) else v[0])
    def test_removed_flag_usage_error(self, cnf_file, tmp_path, capsys,
                                      command, flag):
        argv = _valid_argv(command, cnf_file, tmp_path)
        with pytest.raises(SystemExit) as exc:
            _run(capsys, *argv, *flag)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in out.err
        assert not (tmp_path / "out").exists()


class TestSeed:
    """A seed is a non-negative integer: a bad --seed is a usage error and
    a bad CNFSCOPE_SEED one error naming the variable, never a failure of
    every file."""

    @staticmethod
    def _argv(command, cnf_file, tmp_path):
        if command == "gen":
            return ("gen", tmp_path / "out", "--n", 10, "--m", 20)
        if command == "evolution":
            trace = tmp_path / "t.trace"
            trace.write_text("t 10\n")
            return ("evolution", cnf_file, "--trace", trace)
        return ("features", cnf_file)

    @pytest.mark.parametrize("value", ("-1", "abc", "1.5"))
    @pytest.mark.parametrize("command", ("features", "evolution", "gen"))
    def test_flag_usage_error(self, cnf_file, tmp_path, capsys, command, value):
        with pytest.raises(SystemExit) as exc:
            _run(capsys, *self._argv(command, cnf_file, tmp_path),
                 f"--seed={value}")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: expected a non-negative integer" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ("-3", "abc", ""))
    @pytest.mark.parametrize("command", ("features", "evolution", "gen"))
    def test_bad_env_seed(self, cnf_file, tmp_path, capsys, monkeypatch,
                          command, value):
        monkeypatch.setenv("CNFSCOPE_SEED", value)
        code, out, err = _run(capsys, *self._argv(command, cnf_file, tmp_path))
        assert code == 1
        assert out == ""
        assert err == (f"error: CNFSCOPE_SEED: expected a non-negative "
                       f"integer, got {value!r}\n")
        assert not (tmp_path / "out").exists()

    def test_flag_wins_over_bad_env_seed(self, cnf_file, capsys, monkeypatch):
        monkeypatch.setenv("CNFSCOPE_SEED", "abc")
        code, out, err = _run(capsys, "features", cnf_file, "--seed", 0)
        assert code == 0
        assert err == ""
        assert out.count("\n") == 2

    def test_env_seed_zero(self, cnf_file, capsys, monkeypatch):
        _, by_flag, _ = _run(capsys, "features", cnf_file, "--seed", 0)
        monkeypatch.setenv("CNFSCOPE_SEED", "0")
        code, by_env, _ = _run(capsys, "features", cnf_file)
        assert code == 0
        assert by_env == by_flag


class TestEvolution:
    def test_empty_trace_identity(self, tmp_path, capsys):
        f = random_3cnf(40, 160, seed=2)
        p = tmp_path / "f.cnf"
        p.write_text(write_dimacs(f))
        tr = tmp_path / "t.trace"
        tr.write_text("t 100\nt 1000\n")
        code, out, _ = _run(capsys, "evolution", p, "--trace", tr, "--seed", 1)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "checkpoint,d_learnt,d_b_learnt,d_random,d_b_random,status"
        # both checkpoints add nothing: all four dims equal the original's
        base = lines[1].split(",")[1:5]
        assert lines[2].split(",")[1:5] == base

    def test_conflict_status(self, tmp_path, capsys):
        p = tmp_path / "f.cnf"
        p.write_text("p cnf 3 1\n1 2 3 0\n")
        tr = tmp_path / "t.trace"
        tr.write_text("t 10\n1 0\n-1 0\n")
        code, out, _ = _run(capsys, "evolution", p, "--trace", tr)
        assert code == 0
        # the learnt side's cells are empty; the random stand-in propagates
        # to a formula with no clause left, whose flat curves fit d = 0
        # exactly
        assert out == ("checkpoint,d_learnt,d_b_learnt,d_random,d_b_random,"
                       "status\n10,,,0.0,0.0,conflict_learnt\n")
        code, out, _ = _run(capsys, "evolution", p, "--trace", tr,
                            "--format", "json")
        assert code == 0
        assert out == """[
  {
    "checkpoint": 10,
    "d_learnt": null,
    "d_b_learnt": null,
    "d_random": 0.0,
    "d_b_random": 0.0,
    "status": "conflict_learnt"
  }
]
"""

    def test_tautological_learnt_clause(self, tmp_path, capsys):
        # the learnt clause holds 3 literals over the only 2 variables; its
        # random stand-in draws 2 distinct variables
        p = tmp_path / "f.cnf"
        p.write_text("p cnf 2 1\n1 2 0\n")
        tr = tmp_path / "t.trace"
        tr.write_text("t 1\n1 -1 2 0\n")
        code, out, err = _run(capsys, "evolution", p, "--trace", tr)
        assert (code, err) == (0, "")
        header, row = out.splitlines()
        assert header == "checkpoint,d_learnt,d_b_learnt,d_random,d_b_random,status"
        assert row.startswith("1,") and row.endswith(",ok")

    def test_row_independent_of_other_checkpoints(self, tmp_path, capsys):
        # each random stand-in is seeded by its checkpoint's place in the
        # trace, not by its place in --checkpoints
        p = tmp_path / "f.cnf"
        p.write_text(write_dimacs(random_3cnf(40, 160, seed=0)))
        tr = tmp_path / "t.trace"
        tr.write_text("t 10\n1 -2 0\n3 4 -5 0\nt 20\n-6 7 0\n8 9 10 0\n")
        _, out, _ = _run(capsys, "evolution", p, "--trace", tr, "--seed", 3)
        full = dict(line.split(",", 1) for line in out.splitlines()[1:])
        for asked in ("20", "20,10"):
            code, out, _ = _run(capsys, "evolution", p, "--trace", tr,
                                "--seed", 3, "--checkpoints", asked)
            assert code == 0
            rows = [line.split(",", 1) for line in out.splitlines()[1:]]
            assert [ck for ck, _ in rows] == asked.split(",")
            assert all(cells == full[ck] for ck, cells in rows)

    @pytest.mark.parametrize("asked", ("10,", "x", "10,,20", ","))
    def test_bad_checkpoints_usage_error(self, tmp_path, capsys, asked):
        p = tmp_path / "f.cnf"
        p.write_text(write_dimacs(random_3cnf(10, 30, seed=1)))
        tr = tmp_path / "t.trace"
        tr.write_text("t 10\nt 20\n")
        with pytest.raises(SystemExit) as exc:
            _run(capsys, "evolution", p, "--trace", tr, "--checkpoints", asked)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --checkpoints" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("asked, repeated", (
        ("20,20", "[20]"), ("20,10,20", "[20]"), ("10,20,10,20,10", "[10, 20]")))
    def test_repeated_checkpoints_usage_error(self, tmp_path, capsys, asked,
                                              repeated):
        # a checkpoint asked twice used to be computed and printed twice
        p = tmp_path / "f.cnf"
        p.write_text(write_dimacs(random_3cnf(10, 30, seed=1)))
        tr = tmp_path / "t.trace"
        tr.write_text("t 10\nt 20\n")
        with pytest.raises(SystemExit) as exc:
            _run(capsys, "evolution", p, "--trace", tr, "--checkpoints", asked)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"argument --checkpoints: duplicate checkpoint names: {repeated}" in out.err

    def test_missing_checkpoint(self, tmp_path, capsys):
        p = tmp_path / "f.cnf"
        p.write_text(write_dimacs(random_3cnf(10, 30, seed=1)))
        tr = tmp_path / "t.trace"
        tr.write_text("t 10\n")
        code, _, err = _run(capsys, "evolution", p, "--trace", tr,
                            "--checkpoints", "999")
        assert code == 1
        assert "999" in err


class TestClassifyPortfolio:
    @pytest.fixture()
    def features_csv(self, tmp_path):
        text = ["instance,family,alpha,q,d,d_b,ratio,beta,beta_b,n,m,r_max"]
        for k in range(4):
            text.append(f"lo{k},low,{1.0 + 0.01 * k},0.5,2.0,2.0,4.0,,,,,")
        for k in range(4):
            text.append(f"hi{k},high,{9.0 + 0.01 * k},0.5,2.0,2.0,4.0,,,,,")
        p = tmp_path / "features.csv"
        p.write_text("\n".join(text) + "\n")
        return p

    def test_classify_tree(self, features_csv, capsys):
        code, out, _ = _run(capsys, "classify", features_csv)
        assert code == 0
        rep = json.loads(out)
        assert rep["total"] == 8
        assert rep["successes"] == 8

    def test_classify_knn(self, features_csv, capsys):
        code, out, _ = _run(capsys, "classify", features_csv, "--mode", "knn-loo")
        rep = json.loads(out)
        assert rep["accuracy"] == 1.0

    @pytest.mark.parametrize("names", ("alpha,bogus", "beta"))
    def test_classify_unknown_feature(self, features_csv, capsys, names):
        # a usage error naming the allowed features, not a KeyError
        with pytest.raises(SystemExit) as exc:
            _run(capsys, "classify", features_csv, "--features-used", names)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "choose from alpha, q, d, d_b, ratio" in err

    @pytest.mark.parametrize("names, repeated", (
        ("alpha,q,q", "['q']"), ("q,q", "['q']"),
        ("d,alpha,d,alpha,d", "['d', 'alpha']")))
    def test_classify_repeated_feature(self, features_csv, capsys, names,
                                       repeated):
        # a feature named twice used to count twice in every knn distance
        for mode in ("tree-loo", "knn-loo"):
            with pytest.raises(SystemExit) as exc:
                _run(capsys, "classify", features_csv, "--mode", mode,
                     "--features-used", names)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"argument --features-used: duplicate feature names: {repeated}" in err
            assert "Traceback" not in err

    def test_classify_feature_subset(self, features_csv, capsys):
        code, out, _ = _run(capsys, "classify", features_csv,
                            "--features-used", "alpha,q")
        assert code == 0
        assert json.loads(out)["successes"] == 8

    def test_classify_missing_labels(self, tmp_path, capsys):
        p = tmp_path / "f.csv"
        p.write_text("instance,family,alpha,q,d,d_b,ratio,beta,beta_b,n,m,r_max\n"
                     "a,,1.0,0.5,2.0,2.0,4.0,,,,,\n")
        code, _, err = _run(capsys, "classify", p)
        assert code == 1
        assert err == "error: rows without family label\n"

    @pytest.mark.parametrize("mode", ("tree-loo", "knn-loo"))
    def test_classify_single_row(self, tmp_path, capsys, mode):
        p = tmp_path / "f.csv"
        p.write_text("instance,family,alpha,q,d,d_b,ratio,beta,beta_b,n,m,r_max\n"
                     "a,x,1.0,0.5,2.0,2.0,4.0,,,,,\n")
        code, out, err = _run(capsys, "classify", p, "--mode", mode)
        assert code == 1 and out == ""
        assert err == "error: need at least 2 instances\n"

    @pytest.mark.parametrize("cell", ("nan", "-inf"))
    def test_portfolio_unrankable_runtime(self, features_csv, tmp_path, capsys,
                                          cell):
        ids = [f"lo{k}" for k in range(4)] + [f"hi{k}" for k in range(4)]
        rows = ["instance,s"] + [f"{i},{cell if k == 3 else 1.0}"
                                 for k, i in enumerate(ids)]
        p = tmp_path / "rt.csv"
        p.write_text("\n".join(rows) + "\n")
        code, out, err = _run(capsys, "portfolio", features_csv, p)
        assert code == 1 and out == ""
        assert err == ("error: runtimes must be positive seconds or timeouts, "
                       f"got {cell}\n")

    @pytest.mark.parametrize("timeout", ("nan", "inf", "0", "-1"))
    def test_portfolio_bad_timeout(self, features_csv, tmp_path, capsys,
                                   timeout):
        # nan and inf printed NaN or Infinity, which is not JSON, and exit 0
        ids = [f"lo{k}" for k in range(4)] + [f"hi{k}" for k in range(4)]
        p = tmp_path / "rt.csv"
        p.write_text("\n".join(["instance,s"] + [f"{i},1.0" for i in ids]) + "\n")
        code, out, err = _run(capsys, "portfolio", features_csv, p,
                              "--timeout", timeout)
        assert code == 1 and out == ""
        assert err == ("error: timeout_value must be positive and finite, "
                       f"got {float(timeout)}\n")

    def test_portfolio_duplicate_instance(self, features_csv, tmp_path, capsys):
        ids = [f"lo{k}" for k in range(4)] + [f"hi{k}" for k in range(4)]
        p = tmp_path / "rt.csv"
        p.write_text("\n".join(["instance,s", "lo0,2.0"] + [f"{i},1.0" for i in ids])
                     + "\n")
        code, _, err = _run(capsys, "portfolio", features_csv, p)
        assert code == 1
        assert err == "error: duplicate instance names: ['lo0']\n"

    def test_portfolio_instance_mismatch(self, features_csv, tmp_path, capsys):
        ids = [f"lo{k}" for k in range(1, 4)] + [f"hi{k}" for k in range(4)]
        p = tmp_path / "rt.csv"
        p.write_text("\n".join(["instance,s", "zz,1.0", "extra,1.0"]
                               + [f"{i},1.0" for i in ids]) + "\n")
        code, out, err = _run(capsys, "portfolio", features_csv, p)
        assert code == 1 and out == ""
        assert err == ("error: instance id mismatch: only in features ['lo0'], "
                       "only in runtimes ['extra', 'zz']\n")

    def test_portfolio_duplicate_feature_row(self, tmp_path, capsys):
        p = tmp_path / "f.csv"
        p.write_text("instance,family,alpha,q,d,d_b,ratio,beta,beta_b,n,m,r_max\n"
                     "a,x,1.0,0.5,2.0,2.0,4.0,,,,,\n"
                     "a,y,2.0,0.5,2.0,2.0,4.0,,,,,\n"
                     "b,x,3.0,0.5,2.0,2.0,4.0,,,,,\n")
        rt = tmp_path / "rt.csv"
        rt.write_text("instance,s\na,1.0\nb,2.0\n")
        code, out, err = _run(capsys, "portfolio", p, rt)
        assert code == 1 and out == ""
        assert err == "error: duplicate instance names: ['a']\n"
        # classification counts rows: equal names from two family
        # directories are valid input there
        code, out, _ = _run(capsys, "classify", p)
        assert code == 0
        assert json.loads(out)["total"] == 3

    def test_non_finite_feature(self, tmp_path, capsys):
        # a NaN feature makes distances NaN, and the votes and predictions
        # built on them meaningless; it is an error, not a report
        p = tmp_path / "f.csv"
        p.write_text("instance,family,alpha,q,d,d_b,ratio,beta,beta_b,n,m,r_max\n"
                     "a,f1,1.0,0.5,2.0,2.0,4.0,,,,,\n"
                     "b,f2,nan,0.5,2.0,2.0,4.0,,,,,\n"
                     "c,f1,3.0,0.5,2.0,2.0,4.0,,,,,\n"
                     "d,f2,4.0,0.5,2.0,2.0,4.0,,,,,\n")
        rt = tmp_path / "rt.csv"
        rt.write_text("instance,s1,s2\na,1.0,2.0\nb,2.0,1.0\nc,1.0,2.0\n"
                      "d,2.0,1.0\n")
        for argv in (("portfolio", p, rt), ("classify", p, "--mode", "knn-loo")):
            code, out, err = _run(capsys, *argv)
            assert code == 1 and out == ""
            assert err == "error: non-finite alpha for b: 'nan'\n"

    def test_portfolio(self, features_csv, tmp_path, capsys):
        ids = [f"lo{k}" for k in range(4)] + [f"hi{k}" for k in range(4)]
        rows = ["instance,sA,sB"]
        for i in ids:
            rows.append(f"{i},5.0,TIMEOUT" if i.startswith("lo")
                        else f"{i},TIMEOUT,7.0")
        p = tmp_path / "runtimes.csv"
        p.write_text("\n".join(rows) + "\n")
        code, out, _ = _run(capsys, "portfolio", features_csv, p,
                            "--timeout", 100)
        assert code == 0
        rep = json.loads(out)
        assert rep["vbs"] == 8
        assert rep["solved"] == 8  # clusters are clean, knn picks right
        assert len(rep["per_instance"]) == 8

    def test_portfolio_single_solver(self, features_csv, tmp_path, capsys):
        ids = [f"lo{k}" for k in range(4)] + [f"hi{k}" for k in range(4)]
        rows = ["instance,only"] + [f"{i},3.5" for i in ids]
        p = tmp_path / "rt.csv"
        p.write_text("\n".join(rows) + "\n")
        _, out, _ = _run(capsys, "portfolio", features_csv, p)
        rep = json.loads(out)
        assert all(r["solver"] == "only" for r in rep["per_instance"])

    def test_portfolio_id_mismatch(self, features_csv, tmp_path, capsys):
        p = tmp_path / "rt.csv"
        p.write_text("instance,s\nunknown,1.0\n")
        code, _, err = _run(capsys, "portfolio", features_csv, p)
        assert code == 1
        assert "unknown" in err and "lo0" in err

    def test_output_file(self, features_csv, tmp_path, capsys):
        out_path = tmp_path / "rep.json"
        code, out, _ = _run(capsys, "classify", features_csv, "-o", out_path)
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["total"] == 8


class TestRoundTrip:
    def test_gen_then_features(self, tmp_path, capsys):
        _run(capsys, "gen", tmp_path, "--n", 40, "--m", 170, "--count", 1,
             "--seed", 3)
        p = tmp_path / "rand_n40_m170_s0.cnf"
        f = parse_dimacs(p.read_text())
        assert f.num_vars == 40 and f.num_clauses == 170
        code, out, _ = _run(capsys, "features", p, "--seed", 1)
        assert code == 0
        assert "rand_n40_m170_s0.cnf" in out
