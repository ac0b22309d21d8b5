"""End-to-end runs of the chordlab command: the documented invocations,
exit codes, wire formats, and report determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from chordlab import cli, diagram, patterns

CLI = [sys.executable, "-m", "chordlab.cli"]


def run(*args, env_extra=None):
    # the child imports chordlab from this checkout, as pytest does
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=300
    )


def test_enum_connected_count():
    r = run("enum", "--size", "3", "--class", "connected", "--count")
    assert r.returncode == 0
    assert r.stdout.strip() == "4"


def test_enum_streams_diagram_lines():
    r = run("enum", "--size", "2")
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"]


def test_enum_stats_csv():
    r = run("enum", "--size", "3", "--class", "connected", "--stats", "t1", "--format", "csv")
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["n,t1,count", "3,2,1", "3,3,3"]


def test_enum_t1_on_a_class_with_disconnected_members_names_both():
    r = run("enum", "--size", "5", "--class", "all", "--stats", "t1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.strip() == (
        "error: statistic t1 needs connected diagrams; class all has disconnected members"
    )
    # where every member is connected, the same statistic still runs
    r = run("enum", "--size", "1", "--class", "all", "--stats", "t1")
    assert r.returncode == 0
    assert r.stdout == "n=1 t1=1 count=1\n"


@pytest.mark.parametrize("jobs", ("1", "2"))
@pytest.mark.parametrize(
    "cls, stats, fmt",
    (("connected", "t1,t1", "json"), ("one-terminal", "kappa,terminality,kappa", "csv")),
)
def test_enum_refuses_a_statistic_given_twice(jobs, cls, stats, fmt):
    # a json row has one key per statistic, so a repeated one was lost
    r = run("enum", "--size", "4", "--class", cls, "--stats", stats, "--format", fmt, "--jobs", jobs)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: statistic given twice: %s\n" % stats.split(",")[-1]


def test_enum_unknown_class_is_usage_error():
    r = run("enum", "--size", "3", "--class", "mystery")
    assert r.returncode == 2


def test_enum_size_above_budget_is_usage_error():
    r = run("enum", "--size", "9", "--count")
    assert r.returncode == 2
    r = run("enum", "--size", "4", "--count", env_extra={"CHORDLAB_MAX_SIZE": "3"})
    assert r.returncode == 2
    r = run("enum", "--size", "4", "--count", env_extra={"CHORDLAB_MAX_SIZE": "4"})
    assert r.returncode == 0
    assert r.stdout.strip() == "105"


def test_map_psi():
    r = run("map", "--bijection", "psi", "--input", "(1,3)(2,4)")
    assert r.returncode == 0
    assert r.stdout.strip() == "(1,2)"


def test_map_zeta():
    r = run("map", "--bijection", "zeta", "--input", "(1,3)(2,4)")
    assert r.returncode == 0
    assert r.stdout.strip() == "1221"


def test_map_psi_domain_violation_exits_one():
    r = run("map", "--bijection", "psi", "--input", "(1,4)(2,6)(3,5)")
    assert r.returncode == 1
    assert "one-terminal" in r.stderr


def test_map_unparseable_input_is_usage_error():
    r = run("map", "--bijection", "psi", "--input", "(1,3)(2,3)")
    assert r.returncode == 2


# per map input kind, one bijection that reads it, and inputs that must be
# refused as usage errors: not JSON, the wrong shape, a value that is not
# a string or int where one belongs, and nesting deeper than JSON decodes
DEEP = "[" * 100000 + "]" * 100000
MAP_INPUT_ERRORS = {
    "psi": ("{not json", "[1, 2, 3]", "null", DEEP),
    "zeta-inv": ("{not json", "[1, 2, 3]", "null", DEEP),
    "theta-inv": (
        "{not json", "[1, 2, 3]", '{"a": 1}', "[null, []]", "[Infinity, []]", "[0, 5]", DEEP,
        "[0, [[1, []] [2, []]]]", "[0, [[1, []],]]", "[0, []] [1, []]", "[0, [", '["0", []]',
    ),
    "beta": (
        "{not json", "[1, 2, 3]", '[["(1,2)"]]', "[[1, [1]]]", "[[null, [1]]]",
        '[["(1,2)", [null]]]', DEEP,
    ),
}


@pytest.mark.parametrize("bijection", MAP_INPUT_ERRORS)
def test_map_input_errors_exit_two_without_a_traceback(bijection, capsys):
    for text in MAP_INPUT_ERRORS[bijection]:
        assert cli.main(["map", "--bijection", bijection, "--input", text]) == 2, text[:40]
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot parse input"), text[:40]
        assert "Traceback" not in err


# edge inputs every map is given: empty, one chord, disconnected, malformed
# text, no parts, a word with a symbol twice too often, an unclosed tree
MAP_EDGE_INPUTS = ("", "(1,2)", "(1,2)(3,4)", "(1,2", "[]", "1 1 1 2", "[0, [[1, []]")


@pytest.mark.parametrize("roundtrip", [[], ["--roundtrip"]])
@pytest.mark.parametrize("bijection", sorted(cli._MAPS))
def test_map_edge_inputs_end_in_one_error_line(bijection, roundtrip, capsys):
    for text in MAP_EDGE_INPUTS:
        argv = ["map", "--bijection", bijection, "--input=" + text, *roundtrip]
        assert cli.main(argv) in (0, 1, 2), text
        err = capsys.readouterr().err
        assert err == "" or (err.startswith("error:") and err.count("\n") == 1), (text, err)


def test_map_beta_roundtrip_of_no_parts_reports_alpha_domain(capsys):
    # beta([]) is the one-chord diagram, which alpha refuses
    assert cli.main(["map", "--bijection", "beta", "--input", "[]", "--roundtrip"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("(1,2)\n", "error: alpha requires a connected diagram of size >= 2\n")


def tree_lists(t):
    return [t[0], [tree_lists(k) for k in t[1]]]


def test_map_trees_print_as_json_dumps():
    from chordlab.bijections import theta
    from chordlab.enumeration import members
    from chordlab.oracles import one_terminal

    checked = 0
    for n in range(1, 7):
        for d in members(n, "one-terminal"):
            t = theta(d)
            assert cli._format_tree(t) == json.dumps(tree_lists(t)), d
            checked += 1
    assert checked == sum(one_terminal(n) for n in range(1, 7))


def test_map_reads_back_a_tree_of_any_depth():
    from chordlab.bijections import eta_inverse, theta, theta_inverse

    # a path of 1200 edges: deeper than the recursion limit
    word = (*range(1, 1201), *range(1200, 0, -1))
    d = theta_inverse(eta_inverse(word))
    assert d.n == 1201
    r = run("map", "--bijection", "theta", "--input", d.to_text())
    assert r.returncode == 0 and r.stderr == ""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10000)
    try:
        want = json.dumps(tree_lists(theta(d)))
    finally:
        sys.setrecursionlimit(limit)
    assert r.stdout == want + "\n"
    # each tree map reads the tree back, and --roundtrip compares the trees
    # without recursing
    r = run("map", "--bijection", "theta-inv", "--input", want, "--roundtrip")
    assert (r.returncode, r.stdout, r.stderr) == (0, d.to_text() + "\n", "")
    r = run("map", "--bijection", "eta-inv", "--input", cli._format_word(word), "--roundtrip")
    assert (r.returncode, r.stdout, r.stderr) == (0, want + "\n", "")
    r = run("map", "--bijection", "eta", "--input", want, "--roundtrip")
    assert (r.returncode, r.stdout, r.stderr) == (0, cli._format_word(word) + "\n", "")


def test_map_roundtrip_flag():
    r = run("map", "--bijection", "theta", "--input", "(1,4)(2,5)(3,6)", "--roundtrip")
    assert r.returncode == 0
    r = run("map", "--bijection", "omega", "--input", "(1,2)", "--roundtrip")
    assert r.returncode == 2


def test_map_alpha_beta_wire_format():
    r = run("map", "--bijection", "alpha", "--input", "(1,5)(2,4)(3,6)")
    assert r.returncode == 0
    assert json.loads(r.stdout) == [["(1,2)", [1]], ["(1,2)", [2]]]
    r = run("map", "--bijection", "beta", "--input", '[["(1,2)", [1]], ["(1,2)", [2]]]')
    assert r.returncode == 0
    assert r.stdout.strip() == "(1,5)(2,4)(3,6)"


@pytest.mark.parametrize("operator", ["binomial", "divided-power"])
def test_series_sources_print_identical_rows(operator):
    out = {}
    for source in ("diagrams", "solve"):
        r = run("series", "--operator", operator, "--source", source, "--max-size", "5")
        assert r.returncode == 0
        out[source] = r.stdout
    assert out["diagrams"] == out["solve"]
    assert out["solve"].count("\n") > 5


def test_series_csv():
    r = run("series", "--operator", "binomial", "--max-size", "2", "--format", "csv")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "n,y_power,poly",
        "1,1,f0",
        "2,1,f0*f1*phi1",
        "2,2,1/2*f0^2*phi1",
    ]


def test_verify_named_check():
    r = run("verify", "thm-equation-sol", "--max-size", "5")
    assert r.returncode == 0
    assert "PASS thm-equation-sol" in r.stdout


def test_verify_unknown_id_exits_two():
    r = run("verify", "no-such-id")
    assert r.returncode == 2
    assert "unknown check" in r.stderr


def test_verify_json_report_is_deterministic():
    a = run("verify", "core-pair-statistics", "--max-size", "4", "--format", "json")
    b = run("verify", "core-pair-statistics", "--max-size", "4", "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    rep = json.loads(a.stdout)
    assert rep["ok"] is True
    assert rep["checks"][0]["id"] == "core-pair-statistics"


def test_conjectures_always_exits_zero_and_is_deterministic():
    a = run("conjectures", "--max-size", "3", "--format", "json")
    b = run("conjectures", "--max-size", "3", "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_conjectures_lines_include_sequences():
    r = run("conjectures", "--max-size", "3")
    assert r.returncode == 0
    assert "OEIS" in r.stdout
    assert "dominance" in r.stdout


# each command that takes a size, with the size flag last
SIZED = [
    ["enum", "--count", "--size"],
    ["series", "--operator", "binomial", "--max-size"],
    ["conjectures", "--format", "json", "--max-size"],
    ["verify", "core-pair-statistics", "--max-size"],
]


@pytest.mark.parametrize("argv", SIZED, ids=lambda argv: argv[0])
def test_sizes_outside_the_budget_are_usage_errors(monkeypatch, capsys, argv):
    # a lowered budget keeps the work small should the guard ever let a size by
    monkeypatch.setenv("CHORDLAB_MAX_SIZE", "2")
    for size in ("-1", "3"):
        assert cli.main([*argv, size]) == 2
        assert "outside budget 0..2" in capsys.readouterr().err


def test_sizes_inside_the_budget_still_run(monkeypatch, capsys):
    monkeypatch.setenv("CHORDLAB_MAX_SIZE", "2")
    for argv in SIZED:
        for size in ("0", "2"):
            assert cli.main([*argv, size]) == 0, (argv, size)
    capsys.readouterr()


def test_pattern_classes_beyond_the_budget_are_usage_errors(monkeypatch, capsys):
    # refused before the pattern is built: no size within the budget holds it
    def refuse(k):
        raise AssertionError("the pattern of a refused class must not be built")

    monkeypatch.setattr(patterns, "complete_diagram", refuse)
    monkeypatch.setattr(patterns, "nesting_diagram", refuse)
    for cls in ("K9-free", "N9-free", "K5000-free"):
        assert cli.main(["enum", "--size", "2", "--count", "--class", cls]) == 2
        assert "%s: a pattern of %s chords, outside budget 0..8" % (cls, cls[1:-5]) in capsys.readouterr().err
    monkeypatch.undo()
    # a raised budget lets the same class through
    monkeypatch.setenv("CHORDLAB_MAX_SIZE", "9")
    assert cli.main(["enum", "--size", "2", "--count", "--class", "K9-free"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_verify_default_budgets_are_capped_by_the_size_budget(monkeypatch, capsys):
    # registry budget 6, capped at 2
    monkeypatch.setenv("CHORDLAB_MAX_SIZE", "2")
    assert cli.main(["verify", "core-intersection-graph"]) == 0
    assert "PASS core-intersection-graph (budget 2)" in capsys.readouterr().out
    # a cap above the registry budget leaves it alone
    monkeypatch.setenv("CHORDLAB_MAX_SIZE", "9")
    assert cli.main(["verify", "series-y-degree", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["budget"] == 6
    monkeypatch.setenv("CHORDLAB_MAX_SIZE", "-1")
    assert cli.main(["verify", "core-intersection-graph"]) == 2
    assert "negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["enum", "--count", "--size", "2"],
    ["map", "--bijection", "psi", "--input", "(1,2)"],
    ["series", "--operator", "binomial", "--max-size", "2"],
    ["verify", "core-pair-statistics", "--max-size", "2"],
    ["verify", "core-pair-statistics"],
    ["conjectures", "--format", "json", "--max-size", "2"],
], ids=lambda argv: "-".join(argv[:2]))
def test_a_size_budget_that_is_no_size_is_a_usage_error(monkeypatch, capsys, argv):
    for raw in ("abc", "-1", "", "2.5"):
        monkeypatch.setenv("CHORDLAB_MAX_SIZE", raw)
        assert cli.main(argv) == 2, raw
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: CHORDLAB_MAX_SIZE must be a non-negative integer, got %r\n" % raw


# sha256 of `enum --size 6` stdout for the benchmark's five sweep calls and
# for each root-insertion class listed and counted at one and two jobs, read
# before those classes were built by root insertion, and for the tables of
# "all" by crossings, nestings and terminal-count at one and two jobs, read
# while they still walked the root-insertion sites, and for the plain
# counts of all and K3-free and two class tables at one and two jobs, read
# while the pool still split the site walks by the parents' first chord; a
# change that moves one changes what `enum` prints and must say so
ENUM_SHA256 = [
    ('--jobs 1', '6143a4fb095eccf655ee5688634f8294e62ae4cbddca027d2fbd3019940a1339'),
    ('--jobs 1 --count', '552e5471bbfd498426887d2cbbde1fda9c1f8bb421f4c4ac71c4d48dfc0485b4'),
    ('--jobs 2 --count', '552e5471bbfd498426887d2cbbde1fda9c1f8bb421f4c4ac71c4d48dfc0485b4'),
    ('--jobs 1 --format csv', '009380a86580f5c3cdff9e32c8d3348c2ce8306127a32e1e33c98006bbb755de'),
    ('--jobs 1 --format json', '3dfceda884a692fbf6792e91febb42231acc99d93d78292a65c97c138c0b618a'),
    ('--jobs 1 --class connected --stats t1,terminal-count', '6baeca1b0c402db0a11c3d75f3061be3592145ec2e9d521d1b1be0a1879d0c53'),
    ('--jobs 2 --class connected --stats t1,terminal-count', '6baeca1b0c402db0a11c3d75f3061be3592145ec2e9d521d1b1be0a1879d0c53'),
    ('--jobs 1 --class connected --stats terminal-count,t1 --format json', '628ca113eb1311d5588c0b8e84d1e8ed073e69fc2aac8f04a413e6a4214b1be4'),
    ('--jobs 1 --class one-terminal --stats terminality,kappa', 'daf3bcfd5cff927bc9281f8672d399776cc5f8ab7e7aa0fa4b51993279451fab'),
    ('--jobs 2 --class one-terminal --stats terminality,kappa', 'daf3bcfd5cff927bc9281f8672d399776cc5f8ab7e7aa0fa4b51993279451fab'),
    ('--jobs 1 --class top-cycle-free --stats crossings', '4e790d47f6be542a45bad50471882d2890ea4199797c8c72d5bfa24b2382b980'),
    ('--jobs 2 --class top-cycle-free --stats crossings', '4e790d47f6be542a45bad50471882d2890ea4199797c8c72d5bfa24b2382b980'),
    ('--jobs 1 --stats crossings,nestings', '8d66a11bc1bd3c2a767b5dc3dbd1407b286d1381c8db15be3d7666346c7183f4'),
    ('--jobs 2 --stats crossings,nestings', '8d66a11bc1bd3c2a767b5dc3dbd1407b286d1381c8db15be3d7666346c7183f4'),
    ('--jobs 1 --stats crossings,nestings,terminal-count --format json', '979f00fe172a0d45fc4d69ca04f94f865b8f5deb8cac2572e7bce81f029f9c5f'),
    ('--jobs 2 --stats crossings,nestings,terminal-count --format json', '979f00fe172a0d45fc4d69ca04f94f865b8f5deb8cac2572e7bce81f029f9c5f'),
    ('--jobs 1 --class connected', '0f762da8948ba811c15f24c7d6ed4b8deb6a96c71dab1fba3fb4773551305ba6'),
    ('--jobs 2 --class connected', '0f762da8948ba811c15f24c7d6ed4b8deb6a96c71dab1fba3fb4773551305ba6'),
    ('--jobs 1 --class connected --count', '06b4c890d0dd3e58620ec38ff5dc7ca35540354e30bda2ec0caadd912fc632ac'),
    ('--jobs 2 --class connected --count', '06b4c890d0dd3e58620ec38ff5dc7ca35540354e30bda2ec0caadd912fc632ac'),
    ('--jobs 1 --class one-terminal', 'd1d58792b9d71b39a5939c96b6f7905a32fcc41d1db3db3fac2e0d988dd752c6'),
    ('--jobs 2 --class one-terminal', 'd1d58792b9d71b39a5939c96b6f7905a32fcc41d1db3db3fac2e0d988dd752c6'),
    ('--jobs 1 --class one-terminal --count', '3a96b71ac1f074b212347595e9e0bee7b8afd941c76d607a450d3174d6f42258'),
    ('--jobs 2 --class one-terminal --count', '3a96b71ac1f074b212347595e9e0bee7b8afd941c76d607a450d3174d6f42258'),
    ('--jobs 1 --class noncrossing', '088be6e930a316f14c6757bff8c5a096f648aaba5c567e3d4f5e72f067d72049'),
    ('--jobs 2 --class noncrossing', '088be6e930a316f14c6757bff8c5a096f648aaba5c567e3d4f5e72f067d72049'),
    ('--jobs 1 --class noncrossing --count', '586900065999e00dfd03caec2bd5eb43dd939f082db4718edecd72fabfdcdbec'),
    ('--jobs 2 --class noncrossing --count', '586900065999e00dfd03caec2bd5eb43dd939f082db4718edecd72fabfdcdbec'),
    ('--jobs 1 --class nonnesting', '3efdefc5073f2842eeff8ab30915f064cb5d3ab93839552b85d3be80242597e9'),
    ('--jobs 2 --class nonnesting', '3efdefc5073f2842eeff8ab30915f064cb5d3ab93839552b85d3be80242597e9'),
    ('--jobs 1 --class nonnesting --count', '586900065999e00dfd03caec2bd5eb43dd939f082db4718edecd72fabfdcdbec'),
    ('--jobs 2 --class nonnesting --count', '586900065999e00dfd03caec2bd5eb43dd939f082db4718edecd72fabfdcdbec'),
    ('--jobs 1 --class indecomposable', '1e33ad8001f8dfca07b6cea84e18f5f596fc768b6d466981c27504230e2ac374'),
    ('--jobs 2 --class indecomposable', '1e33ad8001f8dfca07b6cea84e18f5f596fc768b6d466981c27504230e2ac374'),
    ('--jobs 1 --class indecomposable --count', 'c38ac2f3379b08d5d62852d89684e47ee6014e8e9cf91265d2ea42339e9f3445'),
    ('--jobs 2 --class indecomposable --count', 'c38ac2f3379b08d5d62852d89684e47ee6014e8e9cf91265d2ea42339e9f3445'),
    ('--jobs 1 --class K3-free --count', '0baf6e5b484537874c025ee485a08fde09d2607048a79697b17ed4eb75622eed'),
    ('--jobs 2 --class K3-free --count', '0baf6e5b484537874c025ee485a08fde09d2607048a79697b17ed4eb75622eed'),
]


@pytest.mark.parametrize("args, digest", ENUM_SHA256, ids=[a for a, _ in ENUM_SHA256])
def test_enum_output_is_byte_identical_to_the_pin(args, digest):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["enum", "--size", "6", *args.split()]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ("lines", "csv", "json"))
def test_enum_lists_every_diagram_without_building_one(monkeypatch, fmt):
    built = []
    init = diagram._init
    monkeypatch.setattr(diagram, "_init", lambda d, pairs: built.append(pairs) or init(d, pairs))
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["enum", "--size", "6", "--jobs", "1", "--format", fmt]) == 0
    assert "(1,12)(2,11)(3,10)(4,9)(5,8)(6,7)" in out.getvalue()
    assert built == []


# (statistic, class, exit code, sha256 of stdout) of `enum --size 6 --jobs 1
# --stats S --class C`, read while every refined count still built each
# diagram and measured it; a change that moves one changes what `enum`
# prints and must say so
STATS_SHA256 = [
    ('t1', 'all', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('terminal-count', 'all', 0, '068215ab3ce3a86d898c377681e22ad1da3efab60a4fa455c30158281aa5ca75'),
    ('crossings', 'all', 0, '58d2a40d5ce4c3cb72f4cf3b1293fcc7e2c72cae32a7b4f7708eff94d741552f'),
    ('nestings', 'all', 0, '5b81e0fcf5ae2c1272bdb2dcf8b7182110f777c3c0e45066e8e71eb314c052c0'),
    ('kappa', 'all', 0, 'f22175f13c31b22e0e795ffeb4f650373890f66a6ae75bcf491276cd5698c091'),
    ('terminality', 'all', 0, '7c8b86310caccf31c4892f155cdc30f53317d76d62d5fec698398512faab6015'),
    ('t1', 'connected', 0, '4bda198e4acd4d8f0daedfc7d3b26a9d7ca5f394cf1cac8a2b75444a124d64c7'),
    ('terminal-count', 'connected', 0, '2f9181376246e6c214458d053da11395e84ba3ebf482319ee5de712f1d00fe93'),
    ('crossings', 'connected', 0, '421f0061fb15b74fa9e25b730e0508d024c388f4901e5f764a2a9cfc29381223'),
    ('nestings', 'connected', 0, 'bff38f07e3dc1d6fa7dee0b0f33e5b641e33e95c0fc278cacda13c9f8c305970'),
    ('kappa', 'connected', 0, '6d2605b173804450dfd80a63253b34d6805c96afdb57daeaf3bcb8c6024dcb71'),
    ('terminality', 'connected', 0, '9a8361bd5af82c4ff1f6273a25d1d02c417561e1c4e022fd6804ab795fc32579'),
    ('t1', 'one-terminal', 0, 'fc3737979994c8d2821e28e02706c4335bbc3578def4fa4a6e8418d00d4d1de4'),
    ('terminal-count', 'one-terminal', 0, 'bc624df77321dc76071fb929dd8456473e0f45af8c45681d7375285130215c63'),
    ('crossings', 'one-terminal', 0, '98c58b3562eed3b0e9d51e27a5a804a1ec976703fe2489876f5a514f182dc689'),
    ('nestings', 'one-terminal', 0, 'dbf33f7cb85ed0d82c332a5c1161c54bb26f572ad6d705019a1472a3e9a3db51'),
    ('kappa', 'one-terminal', 0, 'e23a6723ea3a3d2c22db64fd528ddefb8d46adff393eeab3805953442b9e38e6'),
    ('terminality', 'one-terminal', 0, '0124ed76d2c700e211a42166d3051aec5dc693b6829bde0b10d3e7f83e7914fa'),
    ('t1', 'K3-free', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('terminal-count', 'K3-free', 0, '607d6ca424a4a74f17f45fd25662e161cc129537276b44ab93c32a174fb60e25'),
    ('crossings', 'K3-free', 0, '497432e37c287f2efa3c0619c294448cfe1017e2d3980fff6233166de5233ea1'),
    ('nestings', 'K3-free', 0, 'c1ca1ea3f49460abb23850961a31dccf7e1e3183eb229adb8bdbbb1c4f6bdf32'),
    ('kappa', 'K3-free', 0, '4b3f33c5ceddb720884c68421f2df435813694a7f7ee6f230814019758d15791'),
    ('terminality', 'K3-free', 0, '90688d210a7b8540676995e79fb197a7a8f2bdcb68570d8cd5976a7a5f7eeaf8'),
    ('t1', 'top-cycle-free', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('terminal-count', 'top-cycle-free', 0, 'b76dce2be735103396cf491294aa34956efc1923b0cfc8f414dba95542e331c3'),
    ('crossings', 'top-cycle-free', 0, '4e790d47f6be542a45bad50471882d2890ea4199797c8c72d5bfa24b2382b980'),
    ('nestings', 'top-cycle-free', 0, '6afc3a2c070d49afac1ad8ae0d8d31a41feb146fe58713d00b64a0b01db9a40d'),
    ('kappa', 'top-cycle-free', 0, '01662cf82420c6254a3956e9821ad16afc08a4899bce27a7b2d74831b6812b6a'),
    ('terminality', 'top-cycle-free', 0, '006fe0c6c71e4662f38ec4555044db37b8bcf6bee2771fe8263f989c4500d2a6'),
    ('t1', 'indecomposable', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('terminal-count', 'indecomposable', 0, '4ec2369bca815ead2c2b6b9a8af8b17946230611f2c35a8e038122ab3c886389'),
    ('crossings', 'indecomposable', 0, '47e4401cb0224fad33147aad11af2588a0de927f5393d200f5db887424544c06'),
    ('nestings', 'indecomposable', 0, '940f7a3be6cdd943f1bf40764d9917a65a0dbc5fae8405001c6492506b82071f'),
    ('kappa', 'indecomposable', 0, 'ed0e843e29128a34c0e0ca995da2f5913d0453f7de096828e9bdfd5ca6b8fbda'),
    ('terminality', 'indecomposable', 0, 'e3b30422dd8e5cdca7d68b6707783861c6d4b613cb23ce65fe088b32f68f96f6'),
]


@pytest.mark.parametrize(
    "stat, cls, code, digest", STATS_SHA256, ids=["%s-%s" % row[:2] for row in STATS_SHA256]
)
def test_enum_stats_are_byte_identical_to_the_pin(stat, cls, code, digest, capsys):
    assert cli.main(["enum", "--size", "6", "--jobs", "1", "--stats", stat, "--class", cls]) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if code:
        assert err == "error: statistic t1 needs connected diagrams; class %s has disconnected members\n" % cls


# sha256 of the stdout of every table and report printed through `cli._emit`,
# in each of its formats, read while each command still wrote its own
# formats; a change that moves one changes what chordlab prints and must
# say so
EMIT_SHA256 = [
    ('enum --size 5 --jobs 1 --count --format csv', '294bb0700c251129ba87cdeb46683154969a34c58678231b30b7e1bd627249a3'),
    ('enum --size 5 --jobs 1 --stats t1 --class connected --format csv', '97f5c30a857de4bac16455d1b34844e14c6b02cf2f76a4ff471380a307eab56c'),
    ('enum --size 5 --jobs 1 --count --format json', 'd600171cf469d79f39d2367e3fb8f034033fbbe6a84c1dba912ed19d02f785fa'),
    ('enum --size 5 --jobs 1 --stats t1 --class connected --format json', 'ff52a0c9536b1551dc3e304a2f2d25da794aab973da3974e70344f4985774f57'),
    ('enum --size 5 --jobs 1 --count --format lines', '3a96b71ac1f074b212347595e9e0bee7b8afd941c76d607a450d3174d6f42258'),
    ('enum --size 5 --jobs 1 --stats t1 --class connected --format lines', 'f7c0b63b206ae155c4a6941c10a4276dba0e67410b90c8b568c3a2cd4a2e5e7d'),
    ('series --max-size 4 --operator binomial --format csv', '467655a22d63f19ac7d8ee30b9d7d0622dcbd2a26e9c0b2ef4e89bddf5a0c0c2'),
    ('series --max-size 4 --operator binomial --format json', '0159e83f36c771e514bafe2e144c2e909ad07ef90c30efe19e11769718f92bc9'),
    ('series --max-size 4 --operator binomial --format lines', '9453441916d9f0bc87c92c97e941ae478119267860c6f8e1659ffbbe84eced38'),
    ('series --max-size 4 --operator divided-power --format csv', '6fd1414776942cd9aaf54705e9cdf6cc770e5f2a7d856ead16f788a83fc6356d'),
    ('series --max-size 4 --operator divided-power --format json', 'c47eb91eda6210268fe00a620f88619fa879e79b24e62e5bdbde44601e388df0'),
    ('series --max-size 4 --operator divided-power --format lines', '1cb7cd60e3624e5d484f10550dba561541e6a856cd59feb6593dfe7a994f99c7'),
    ('conjectures --max-size 4 --format csv', 'c02166aba5769b8d538eaafd136481d5a5ceadfbf3d2f2b506d50dc899202245'),
    ('conjectures --max-size 4 --format json', 'e0b043936c41d9075c0c9ade881166b0d7d18d2d006a193436d520c5baf0ddd1'),
    ('conjectures --max-size 4 --format lines', '74052a9e149de4432c9d18964beb8afc294bbb0bc172e96b568bcc765888e504'),
    ('conjectures --max-size 6 --format csv', 'c02166aba5769b8d538eaafd136481d5a5ceadfbf3d2f2b506d50dc899202245'),
    ('conjectures --max-size 6 --format json', '8db9ef5ba66e8854eb82d133d7b9769ed53ac8d57eaf844eb3beb7bcb1b4d0fa'),
    ('conjectures --max-size 6 --format lines', 'afe844f21c4dcc9d6a16fd9925ba6ca2d79b53d3c804a02a7c47800babbff382'),
    ('conjectures --max-size 7 --format json', '2993d05a7dee3d6b5d2edd5451ef0df816a1710617154b2505c75f00fb91cb00'),
    ('verify core-pair-statistics --max-size 3 --format json', '585d63c290e67a8a84240075043e73ac4b78a13997febfd4ae7a6dbf2be6ebcb'),
    ('verify core-pair-statistics --max-size 3 --format lines', 'da969cdf677f60b9cdd3a00dc2030cdc024f4f069f8ad5ef63215150a1ccdfdd'),
]


# sha256 of the stdout of the series tables at --max-size 7, from the
# solver and from the diagram sums, and of the reports of the series
# checks that read YPoly products, the cocycle tensors and the EGF
# recurrence, at the registry's default budgets; read while YPoly had its
# own product loop and the cocycle check its tensor helpers
SERIES_SHA256 = [
    ('series --max-size 7 --operator binomial --source solve --format json', 'c1b031dc029f5e50da55a0f65683c0cd9cd3bc110605d6c5d06e8b92d5c9665b'),
    ('series --max-size 7 --operator binomial --source diagrams --format json', 'c1b031dc029f5e50da55a0f65683c0cd9cd3bc110605d6c5d06e8b92d5c9665b'),
    ('series --max-size 7 --operator divided-power --source solve --format json', '3bbcdf82c4784696ec6b4d01cc46b27744ec4a219dba9149e4765eecb5a96115'),
    ('series --max-size 7 --operator divided-power --source diagrams --format json', '3bbcdf82c4784696ec6b4d01cc46b27744ec4a219dba9149e4765eecb5a96115'),
    ('verify series-cocycle series-rge series-ogf-egf --format json', '8e17978ba833cd87835e7c6bab41b7fe25266a80efb95bebb1fd3a65a4bd90a0'),
]


@pytest.mark.parametrize(
    "args, digest", EMIT_SHA256 + SERIES_SHA256, ids=[a for a, _ in EMIT_SHA256 + SERIES_SHA256]
)
def test_reports_are_byte_identical_to_the_pin(args, digest, capsys):
    assert cli.main(args.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
