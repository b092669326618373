"""Byte pins: the sha256 of what the ``domroots`` command writes for fixed
calls, each call run in this process through :func:`cli.main`.

A pin hashes, per call, one of
* ``STDOUT``: the call's stdout, as ``python -m domroots ... | sha256sum``
  hashes it; every call must exit 0;
* ``RUN``: ``"{exit code}\\n{stdout}{stderr}"``;
* ``ARGV``: ``"{argv as JSON}\\n{exit code}\\n{stdout}{stderr}"``.
A declared output change edits the digest here and records the old and the
new digest in ``CHANGES.md``.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from domroots import cli, realroots, witness
from domroots.witness import certificate_from_json, verify_certificate

from conftest import time_limit

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from checks import check_corpus  # noqa: E402
from run import _graph6, random_corpus, witness_queries  # noqa: E402

STDOUT, RUN, ARGV = "stdout", "run", "argv"
CORPUS = "corpus.g6"  # the input file of file-mode calls, in the test's directory
FILE_MODE = ["--workers", "1", "atlas", "0", "--mode", "file", "--input", CORPUS]


class Pin(NamedTuple):
    name: str
    hashed: str  # STDOUT, RUN or ARGV
    calls: list
    digest: str
    corpus: list = []  # graph6 lines of CORPUS
    patch: dict = {}  # attributes of the witness module replaced for the calls
    limit: float = 0  # seconds the calls must finish in, when set


class Sha256(io.TextIOBase):
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, s):
        self.hash.update(s.encode())
        return len(s)


def call(argv, out):
    """``cli.main(argv)`` with its stdout written to ``out``: the exit code
    and the stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return cli.main(argv), err.getvalue()


def write_corpus(lines):
    with open(CORPUS, "w", encoding="ascii") as fh:
        fh.write("".join(line + "\n" for line in lines))


def random_orders(seed, size, low):
    """``size`` random graphs of orders ``low`` to ``low + 3`` in turn, each
    with its own edge probability."""
    rng = random.Random(seed)
    lines = []
    for k in range(size):
        n = low + k % 4
        p = rng.random()
        lines.append(_graph6(n, {(i, j) for j in range(1, n) for i in range(j) if rng.random() < p}))
    return lines


def queries(seed):
    """The calls of the benchmark's 200 witness queries of ``seed``."""
    return [["witness", "-z", q[0], "-e", q[1], *q[2:]] for q in witness_queries(seed)]


GRID = [["witness", "-z", z, "-e", e]
        for z in ("-0.25", "-0.75", "-1.25", "-1.5", "-1.9", "-2.5", "-5", "-10")
        for e in ("1/10", "1/100")]
ROOTS = [["roots", "--family", "star:2"], ["roots", "--graph6", "A_", "--window", "-3", "-1"],
         ["roots", "--graph6", "A_", "--window", "-3", "-2"], ["roots", "--graph6", "EgCG"],
         ["--format", "json", "roots", "--graph6", "EgCG"],
         ["--format", "csv", "roots", "--family", "kbip:2,3"]]
_W, _R, _A = ["witness", "-z"], ["roots", "--graph6", "A_", "--window"], ["--graph6", "A_"]
MALFORMED = [
    _W + ["abc", "-e", "1/10"], _W + ["", "-e", "1/10"],
    _W + ["1/2/3", "-e", "1/10"], _W + ["-1/2", "-e", "1/0"],
    _W + ["x", "-e", "y"], _W + ["-1/2", "-e", "0"],
    _W + ["1/2", "-e", "1/10"],
    ["--tol", "1/0", "star-roots", "3"], ["--tol", "abc", *_W, "abc", "-e", "1/10"],
    ["--tol", "0", "star-roots", "3"],
    _R + ["a", "0"], _R + ["-1", "1/0"], _R + ["a", "b"], _R + ["1", "-1"],
    _R + ["-3/2", "1/2"], ["--format", "json", "roots", "--family", "kkk:3"],
    ["poly", "--family", "kbip:2,3"], ["--format", "json", "poly", "--family", "kbip:2,3"],
    ["--format", "csv", "poly", "--family", "kbip:2,3"], ["poly", "--graph6", "EgCG"],
    ["compose", *_A, "-m", "3"], ["--format", "json", "compose", *_A, "-m", "3"],
    ["--format", "csv", "compose", "--family", "star:3", "-m", "5"],
    ["poly", "--family", "star:20"], ["poly", "--family", "kkk:7"],
    ["poly", "--family", "kbip:5,9"], ["poly", "--family", "complete:14"],
    ["poly", "--family", "empty:15"],
]
_Q = ["witness", "-z", "-1.5", "-e", "1/20"]
PAST_CAP = [
    ["poly", "--family", "star:100"], ["compose", "--family", "kkk:40", "-m", "3"],
    ["roots", "--family", "star:70"],
    ["poly", "--method", "brute", "--family", "star:64"],
    ["poly", "--method", "inex", "--family", "star:64"],
    ["--tol", "", "star-roots", "3"],
    ["--tol", "abc", "--workers", "0", *_Q, "--max-m", "0"],
    ["--workers", "0", *_Q, "--max-m", "0"], ["--workers", "0", *_Q],
]
KRONECKER = [
    ["poly", "--family", "kkk:300"],
    ["compose", "--family", "star:40", "-m", "9"],
    ["compose", "--family", "kbip:5,9", "-m", "7"],
    ["--format", "json", "compose", "--family", "kkk:12", "-m", "5"],
]

PINS = [
    Pin("sweep-7-two-workers", STDOUT, [["--workers", "2", "atlas", "7"]],
        "1e6aa8fce74ea4b83b225f855a3d2c4d22e32be06ae19d8858df04fa70292d8b"),
    # the float path decides the printed digits of these roots: the top
    # level's bisection path, from the derivative levels' coarse roots;
    # no float sign refuses a polynomial, so none of them falls back
    *(Pin(f"corpus-seed-{seed}", STDOUT, [FILE_MODE], digest, random_corpus(seed, 2500))
      for seed, digest in (
          (1, "ae5cbe478c868e56fbeeb5521fd4a67776155ad1b8111fa06be07af16bcb8d9e"),
          (2, "684f5af18ddd8e55b835ec513cabeb41864a6cb01c09569147e309069456c838"),
          (3, "b86623f519ca3072a3eee2d643427234bbbf729bd026ae14068517058645414a"))),
    # orders above dompoly.BLOCK = 14 walk the high vertices of
    # inclusion-exclusion, and certification meets degrees up to 16
    Pin("corpus-orders-13-16", STDOUT, [FILE_MODE],
        "410e2e9138270504265325453aba31d4638a60708a4ea86cff63a37e57e0de3e", random_orders(19, 300, 13)),
    # the float search writes 16 Horner steps per statement, so these
    # degrees run past the first statement
    Pin("corpus-orders-17-20", STDOUT, [FILE_MODE],
        "fd73fb72955a2ea20eb3a056c717bd7e1f42fa28d07f277deb6d0b94fa93cef6", random_orders(23, 200, 17)),
    Pin("table-9", STDOUT, [["atlas", "9", "--table"]],
        "c68b7fa6fed61ea23b6d092173268489884f1918b2cc27e637b5d5e8b576e556"),
    # EgCG is 2P_3 with D = (x^3+3x^2+x)^2: its repeated roots print two
    # sturm-counted enclosures; A_ is K_2, with the exact root -2
    Pin("roots", STDOUT, ROOTS, "dbb0984953b46dd674768ec41f168347a244bcfb7ec624bd82f25cf7dd267df4"),
    Pin("witness-grid", STDOUT, GRID, "ed3ef8f187a616bd71a4e4b7aca331f5fb255a0e7df5d1ca64faa0bd653e41f7"),
    Pin("star-roots-300", STDOUT, [["star-roots", "300"]],
        "498b51ef0c401d618f4b0445301c1bee36c66034f41d84de4d89e45e3d4c3259"),
    # exit code, stdout and stderr (the verification report) of each query
    Pin("witness-seed-1", RUN, queries(1),
        "bca6b7fa9aba8883c772cbf3a449ee4968f65eb88f7086689aa72dd52b74eef0"),
    # every guess is now wrong, so exact signs alone decide each answer,
    # and the bytes are those pinned for seed 1 above
    Pin("witness-seed-1-negated-guides", RUN, queries(1),
        "bca6b7fa9aba8883c772cbf3a449ee4968f65eb88f7086689aa72dd52b74eef0",
        patch={"bipartite_log_value": lambda sides, y, m: -realroots.bipartite_log_value(sides, y, m)}),
    # every sign the search takes is the expanded integer's, so the bytes
    # are those pinned for seed 1 above: the balls only save time
    Pin("witness-seed-1-exact-signs", RUN, queries(1),
        "bca6b7fa9aba8883c772cbf3a449ee4968f65eb88f7086689aa72dd52b74eef0",
        patch={"bipartite_sign": lambda s, u, v: realroots.bipartite_numerator_sign(s, u, v) if u else 0}),
    # as for seed 1: the float guides pick each guess and
    # exact signs decide, so no certificate, report or exit code moves
    Pin("witness-seed-2", RUN, queries(2),
        "18680c2f6aa89605a8be1f5bc755206741f651793986e48d078941c02401afe4"),
    Pin("witness-seed-3", RUN, queries(3),
        "a0256204259359b9083156a993902671ddcdadaa04eb0e17a3e8dea78614d719"),
    # every rational the CLI reads goes through one reader,
    # and --family above order 12 prints its closed form
    Pin("cli-malformed-poly-compose", ARGV, MALFORMED,
        "8bb1a3bade5944304d8867bddc751f8596f51d7d5f8a2e89a8e6d2db0f039fc9"),
    # a family above order 12 builds no graph, so star:100 prints;
    # --method brute|inex still builds one and meets the cap; the first bad
    # input (tolerance, budget bounds, worker count) is reported
    Pin("cli-past-cap", ARGV, PAST_CAP, "da8ee8a2f76d79b83c3326e4fa115433f6920261142c5815cb7e3a58e0dc93a5"),
    # products and compositions whose coefficients run to hundreds of bits,
    # so the packed slots are many bytes wide
    Pin("cli-kronecker", ARGV, KRONECKER,
        "a3386d750b9e8837b8828ad4f341bf474cc3cc77c8b9d9f84f2ef05451d0a912"),
    # growth_check goes through star_root, the mirror of the bisection on D(K_{1,k})
    Pin("growth-60", STDOUT, [["atlas", "60", "--growth"]],
        "bc9435b18dc3f3c32d166ea48f61a801bc761aea2f3c611547d4c2e341da3902"),
    # the sign kernel's balls decide these at a few hundred bits; the
    # witness's ends are the simplest rationals around its bracket
    Pin("star-roots-400-tol-1e-40", STDOUT, [["--tol", "1e-40", "star-roots", "400"]],
        "778d1a84105268c3fdab3dee4a7553b6678f65c080ceb8b5ca0a175776db512c"),
    Pin("witness-4792-leaves-tol-1e-130", STDOUT,
        [["--tol", "1e-130", "witness", "-z", "-10", "-e", "1/100"]],
        "1bf63ea7abc660147fb88589ff038116be7fd724f92697ca8673128e3dc548c0", limit=120),
]


@pytest.mark.parametrize("pin", PINS, ids=[pin.name for pin in PINS])
def test_pin(pin, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, value in pin.patch.items():
        monkeypatch.setattr(witness, name, value)
    if pin.corpus:
        write_corpus(pin.corpus)
    sink = Sha256()
    with time_limit(pin.limit) if pin.limit else contextlib.nullcontext():
        for argv in pin.calls:
            if pin.hashed == STDOUT:
                code, err = call(argv, sink)
                assert code == 0, f"{argv}: {err}"
                continue
            out = io.StringIO()
            code, err = call(argv, out)
            head = json.dumps(argv) + "\n" if pin.hashed == ARGV else ""
            sink.write(f"{head}{code}\n{out.getvalue()}{err}")
    assert sink.hash.hexdigest() == pin.digest


def test_isomorphism_classes_of_order_7():
    # OEIS A000088
    out = io.StringIO()
    with time_limit(60):
        code, err = call(["atlas", "7", "--mode", "dedup"], out)
    assert code == 0, err
    assert len({row.split(",")[0] for row in out.getvalue().splitlines()[1:]}) == 1044


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_corpus_root_clouds_pass_the_benchmark_check(seed, tmp_path, monkeypatch):
    # an independent check behind the pinned bytes: brute-force polynomials,
    # a Sturm count per graph, and the end signs of every enclosure
    monkeypatch.chdir(tmp_path)
    lines = random_corpus(seed, 2500)
    write_corpus(lines)
    with open("cloud.csv", "w", encoding="ascii") as cloud:
        code, err = call(FILE_MODE, cloud)
    assert code == 0, err
    problems, _ = check_corpus("cloud.csv", lines)
    assert not problems, problems


def test_inclusion_exclusion_against_brute_force_at_order_20():
    g = "SfLYX~~CpGLbFb@EOEVF_fZl~cyGiqfP?"
    inex, brute = io.StringIO(), io.StringIO()
    assert call(["poly", "--method", "inex", "--graph6", g], inex)[0] == 0
    assert call(["poly", "--method", "brute", "--graph6", g], brute)[0] == 0
    assert inex.getvalue().strip() and inex.getvalue() == brute.getvalue()


def test_star_witness_at_z_minus_15_builds_and_verifies():
    # 21,678 leaves: the sign kernel builds this in about 0.01 s, and the
    # verifier expands two numerators of about 1.4e6 and 1.6e6 bits in exact
    # decimal in about 0.06 s; the search through the exact integer alone
    # takes 8.6 s
    out = io.StringIO()
    with time_limit(60):
        code, err = call(["witness", "-z", "-15", "-e", "1/100", "--max-param", "30000",
                          "--max-degree", "100000"], out)
    assert code == 0, err
    with time_limit(60):
        report = verify_certificate(certificate_from_json(out.getvalue()))
    assert report.ok, str(report)


def test_star_witness_at_z_minus_20_builds_and_verifies():
    # 60,487 leaves, composed degree 181,464: the command verifies what it
    # emits, two numerators of about 3.8e6 and 4.4e6 bits, about 0.2 s in
    # exact decimal (0.9 s as ints)
    out = io.StringIO()
    with time_limit(60):
        code, err = call(["witness", "-z", "-20", "-e", "1/100", "--max-param", "70000",
                          "--max-degree", "200000"], out)
    assert code == 0, err
    assert '"composed_degree": 181464' in out.getvalue()
