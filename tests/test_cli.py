import hashlib
import json
import time

import pytest

import pgs.groups
import pgs.series
from pgs.cli import build_parser, main
from pgs.constructions import SemidirectGroup
from pgs.groups import DirectProductGroup, SubgroupGroup
from test_properties import SUITE_FAMILIES


@pytest.fixture
def write_desc(tmp_path):
    def _write(obj, name="desc.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return _write


K_DESC = {
    "op": "central_quotient",
    "group": {
        "op": "product",
        "factors": [
            {"family": "Dc", "p": 3, "c": 2},
            {"family": "cyclic", "p": 3, "e": 2},
        ],
    },
    "word": "f0.x^3*f1.d^3",
}


def test_describe_text(write_desc, capsys):
    code = main(["describe", write_desc({"family": "Mc", "p": 3, "c": 3})])
    out = capsys.readouterr().out
    assert code == 0
    assert "order: 81" in out and "class: 3" in out


def test_describe_json(write_desc, capsys):
    code = main(["describe", write_desc({"family": "Dc", "p": 3, "c": 2}), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["order"] == 81 and out["class"] == 2
    assert out["generators"] == ["x", "y"]


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code = main(["describe", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err and "column" in err
    bad.write_bytes(b'{"family": "Dc", "p": 3, "c": 2, "x": "\xff"}')  # not UTF-8
    assert main(["describe", str(bad)]) == 2
    assert "unreadable description" in capsys.readouterr().err


def test_rejected_parameters_exit_2(write_desc, capsys):
    code = main(["verify", write_desc({"family": "Dc", "p": 2, "c": 2})])
    assert code == 2


def test_spectrum_command(write_desc, capsys):
    code = main(["spectrum", write_desc({"family": "Dc", "p": 3, "c": 3}), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["spectrum"] == [1]

    code = main(
        ["spectrum", write_desc({"family": "homocyclic", "p": 3, "k": 2, "e": 1, "s": 0}), "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["spectrum"] == [1, 2]


def test_series_command(write_desc, capsys):
    code = main(["series", write_desc({"family": "Dc", "p": 3, "c": 2}), "--lower", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["kind"] == "lower" and out["orders"] == [81, 3, 1]

    # second term of the descending series is <x^p>, of order p^(c-1)
    code = main(["series", write_desc({"family": "Dc", "p": 3, "c": 3}), "--lower", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert out["orders"] == [729, 9, 3, 1]

    code = main(["series", write_desc({"family": "Mc", "p": 3, "c": 3}), "--upper", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert out["orders"] == [1, 3, 9, 81]


def test_verify_group_checks(write_desc, capsys):
    code = main(["verify", write_desc({"family": "Mc", "p": 3, "c": 2}), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["pass"]
    names = {r["check"] for r in out["records"]}
    assert "theorem_part1" in names and "lemma2" in names and "lemma_fact" in names


@pytest.mark.parametrize(
    "desc, applicable",
    [
        ({"family": "Dc", "p": 3, "c": 2}, False),  # Omega_1 abelian
        ({"family": "Mc", "p": 2, "c": 3}, False),  # dihedral: p = 2
        ({"family": "Mc", "p": 3, "c": 2}, True),
    ],
    ids=["Dc(3,2)", "Mc(2,3)", "Mc(3,2)"],
)
def test_verify_question_applicability(write_desc, capsys, desc, applicable):
    code = main(["verify", write_desc(desc), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["pass"]
    (rec,) = [r for r in out["records"] if r["check"] == "question_witness"]
    assert rec["pass"] and rec["details"] == {"applicable": applicable}
    assert ("witness" in rec) == applicable


def test_verify_check_filter(write_desc, capsys):
    code = main(["verify", write_desc({"family": "Mc", "p": 3, "c": 2}), "--check", "lemma2", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [r["check"] for r in out["records"]] == ["lemma2"]

    code = main(["verify", write_desc({"family": "Mc", "p": 3, "c": 2}), "--check", "nosuch"])
    assert code == 2


def test_verify_example_k_prop_same(write_desc, capsys):
    code = main(["verify", write_desc(K_DESC), "--check", "prop_same", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    rec = out["records"][0]
    assert rec["check"] == "prop_same" and not rec["pass"]
    assert rec["error"] == "PreconditionFailed"
    assert rec["details"]["report"]["quotient_spectrum"] == [1, 2]


def test_suite_filtered_is_byte_stable(capsys):
    code = main(["suite", "--check", "lemma_fact", "--json"])
    first = capsys.readouterr().out
    assert code == 0
    code = main(["suite", "--check", "lemma_fact", "--json"])
    second = capsys.readouterr().out
    assert first == second
    parsed = json.loads(first)
    assert parsed["pass"] and all(r["millis"] == 0 for r in parsed["records"])


def test_suite_resource_limit_exit_3(capsys):
    code = main(["suite", "--check", "partb_decompose", "--max-order", "200"])
    assert code == 3


def test_decompose_command(write_desc, capsys):
    prod = {
        "op": "product",
        "factors": [{"family": "Dc", "p": 3, "c": 2}, {"family": "Mc", "p": 3, "c": 2}],
    }
    code = main(["decompose", write_desc(prod), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["decomposable"] and sorted(out["factor_orders"]) == [27, 81]

    code = main(["decompose", write_desc({"family": "Mc", "p": 3, "c": 3}), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and not out["decomposable"]


def test_decompose_cyclic_center_builds_no_table(write_desc, capsys, table_reads):
    # Z(Mc(3,8)) has order 3, so its 19,683 elements are indecomposable with
    # no table read; the full search takes 7.6 s on Mc(3,7), a third the size
    code = main(["decompose", write_desc({"family": "Mc", "p": 3, "c": 8})])
    assert code == 0 and capsys.readouterr().out.strip() == "decomposable: no"
    assert table_reads == []


def test_env_max_order(write_desc, capsys, monkeypatch):
    monkeypatch.setenv("PGS_MAX_ORDER", "50")
    code = main(["describe", write_desc({"family": "Dc", "p": 3, "c": 2})])
    assert code == 3
    # explicit flag overrides the environment
    code = main(["describe", write_desc({"family": "Dc", "p": 3, "c": 2}), "--max-order", "1000"])
    capsys.readouterr()
    assert code == 0

    monkeypatch.setenv("PGS_MAX_ORDER", "zebra")
    assert main(["describe", write_desc({"family": "Dc", "p": 3, "c": 2})]) == 2


@pytest.mark.parametrize(
    "desc",
    [
        {"family": "Dc", "p": 101, "c": 5},
        {"family": "cyclic", "p": 1000000000000000000000000000057, "e": 1},
        {"family": "Mc", "p": 1000000000000000000000000000057, "c": 2},
        {"family": "B2", "p": 1000000000000000000000000000057, "k": 2},
        {"family": "homocyclic", "p": 1000000000000000000000000000057, "k": 1, "e": 1, "s": 0},
    ],
)
def test_over_bound_family_exits_3_at_once(write_desc, capsys, desc):
    path = write_desc(desc)
    t0 = time.perf_counter()
    code = main(["describe", path])
    assert time.perf_counter() - t0 < 2
    assert code == 3
    assert "more than 2000000 elements" in capsys.readouterr().err


def test_suite_unmatched_check_exits_2(capsys):
    assert main(["suite", "--check", "nosuch"]) == 2
    assert "no checks matched" in capsys.readouterr().err


def test_non_positive_max_order_exits_2(write_desc, capsys, monkeypatch):
    for family in ({"family": "Dc", "p": 3, "c": 2}, {"family": "Mc", "p": 3, "c": 2}):
        path = write_desc(family)
        for bound in ("-5", "0"):
            assert main(["describe", path, "--max-order", bound]) == 2
            monkeypatch.setenv("PGS_MAX_ORDER", bound)
            assert main(["describe", path]) == 2
            monkeypatch.delenv("PGS_MAX_ORDER")
    assert "must be positive" in capsys.readouterr().err


def test_non_positive_decompose_bound_exits_2(write_desc, capsys):
    path = write_desc({"family": "Dc", "p": 3, "c": 2})
    for bound in ("-5", "0"):
        assert main(["decompose", path, "--decompose-bound", bound]) == 2
        assert main(["suite", "--check", "partb_decompose", "--decompose-bound", bound]) == 2
    assert "must be positive" in capsys.readouterr().err


def test_overlong_integers_exit_2(tmp_path, write_desc, capsys):
    digits = "1" * 5000
    literal = tmp_path / "long.json"
    literal.write_text('{"family": "Dc", "p": ' + digits + ', "c": 2}', encoding="utf-8")
    assert main(["describe", str(literal)]) == 2
    word = dict(K_DESC, word=f"f0.x^{digits}*f1.d^3")
    assert main(["describe", write_desc(word)]) == 2
    err = capsys.readouterr().err
    assert "unreadable description" in err and "too many digits" in err


def test_partb_flags_must_be_json_booleans(write_desc, capsys):
    base = {"family": "partb", "p": 2, "cs": [2], "c": 3}
    # a string is not a flag: "false" would otherwise build the indecomposable group
    assert main(["describe", write_desc(dict(base, indecomposable="false"))]) == 2
    assert "'indecomposable' must be true or false" in capsys.readouterr().err
    # nor is a boolean an integer in 'cs'
    assert main(["describe", write_desc(dict(base, cs=[True]))]) == 2
    assert "'cs' must be a list of integers" in capsys.readouterr().err
    # absent means false
    assert main(["describe", write_desc(base), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["description"] == "partb_dec(2,[2],3)"
    assert main(["describe", write_desc(dict(base, indecomposable=True)), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["description"] == "partb_indec(2,[2],3)"


def test_deeply_nested_descriptions_exit_2(tmp_path, write_desc, capsys):
    leaf = {"family": "cyclic", "p": 3, "e": 1}

    def nested(levels):
        desc = leaf
        for _ in range(levels - 1):
            desc = {"op": "product", "factors": [desc]}
        return desc

    assert main(["describe", write_desc(nested(100))]) == 0
    capsys.readouterr()
    # refused by the parser, before the build or the enumeration recurses
    for levels in (101, 400):
        assert main(["describe", write_desc(nested(levels))]) == 2
        assert "nested more than 100 levels deep" in capsys.readouterr().err
    # too deep for the JSON decoder itself
    deep = tmp_path / "deep.json"
    deep.write_text('{"op": "product", "factors": [' * 2999 + json.dumps(leaf) + "]}" * 2999, encoding="utf-8")
    assert main(["describe", str(deep)]) == 2
    assert "nested too deeply to read" in capsys.readouterr().err


def test_prop_same_word_shape_exits_2(write_desc, capsys):
    swapped = dict(K_DESC, word="f1.d^3*f0.x^3")
    assert main(["verify", write_desc(swapped), "--check", "prop_same"]) == 2
    assert "f0.<w>*f1.<w>" in capsys.readouterr().err


def test_verify_builds_the_ucs_once(write_desc, capsys, monkeypatch):
    # on a class-2 group each ucs build forms exactly one quotient, G/Z_1
    quotients = []
    real = pgs.series.QuotientGroup

    def counting(G, N):
        quotients.append(len(N))
        return real(G, N)

    monkeypatch.setattr(pgs.series, "QuotientGroup", counting)
    code = main(["verify", write_desc({"family": "Mc", "p": 3, "c": 2}), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and len(out["records"]) >= 4
    assert quotients == [3]


@pytest.mark.parametrize(
    "desc, product_order",
    [
        (K_DESC, 81 * 9),
        ({"op": "product", "factors": [{"family": "Mc", "p": 3, "c": 2}, {"family": "Dc", "p": 3, "c": 2}]}, 27 * 81),
        (
            {
                "op": "central_quotient",
                "group": {"op": "product", "factors": [{"family": "Mc", "p": 3, "c": 2}, {"family": "cyclic", "p": 3, "e": 1}]},
                "word": "f0.s2*f1.d",
            },
            27 * 3,
        ),
    ],
    ids=["Dc(3,2)xC9/<x^3d^3>", "Mc(3,2)xDc(3,2)", "Mc(3,2)xC3/<s2d>"],
)
def test_verify_closes_the_product_once(write_desc, capsys, monkeypatch, desc, product_order):
    """The product's carrier is built once, whichever checks read it."""
    sizes = []

    def stored(self):
        return vars(self)["_enumeration"]

    def store(self, E):
        if E is not None:
            sizes.append(len(E))
        vars(self)["_enumeration"] = E

    monkeypatch.setattr(DirectProductGroup, "_enumeration", property(stored, store), raising=False)
    main(["verify", write_desc(desc), "--json"])
    records = json.loads(capsys.readouterr().out)["records"]
    assert {"product_spectrum", "prop_same"} & {r["check"] for r in records}
    assert sizes.count(product_order) == 1


def test_over_bound_product_exits_3_before_multiplying(write_desc, capsys, monkeypatch):
    calls, built = [], []
    real = SemidirectGroup.multiply

    def counting(self, a, b):
        calls.append(1)
        return real(self, a, b)

    monkeypatch.setattr(SemidirectGroup, "multiply", counting)
    real_concatenations = pgs.groups._concatenations
    monkeypatch.setattr(pgs.groups, "_concatenations", lambda parts: built.append(1) or real_concatenations(parts))
    dc = {"family": "Dc", "p": 3, "c": 5}  # 3^10 elements each, 3^20 together
    assert main(["describe", write_desc({"op": "product", "factors": [dc, dc]}), "--max-order", "200000"]) == 3
    assert "more than 200000 elements" in capsys.readouterr().err
    # refused on its known order: no multiply, and no carrier built
    assert calls == [] and built == []
    # the counters do see a product within the bound
    small = {"family": "Dc", "p": 3, "c": 2}
    assert main(["describe", write_desc({"op": "product", "factors": [small, small]})]) == 0
    assert calls and built


@pytest.mark.parametrize(
    "desc, name, within",
    [
        (
            {"family": "homocyclic", "p": 3, "k": 2, "e": 6, "s": 1},
            "homocyclic(3,2,6,1)",
            {"family": "homocyclic", "p": 3, "k": 2, "e": 2, "s": 1},
        ),
        (
            {"family": "partb", "p": 3, "cs": [3], "c": 6, "indecomposable": True},
            "partb_indec(3,[3],6)",
            {"family": "partb", "p": 2, "cs": [2], "c": 3, "indecomposable": True},
        ),
    ],
)
def test_over_bound_subgroup_family_exits_3_before_closing(write_desc, capsys, monkeypatch, desc, name, within):
    """A subgroup family knows its order from its index, so an over-bound
    one is refused before its closure makes a multiply."""
    calls = []
    real = SubgroupGroup.multiply

    def counting(self, a, b):
        calls.append(1)
        return real(self, a, b)

    monkeypatch.setattr(SubgroupGroup, "multiply", counting)
    t0 = time.perf_counter()
    assert main(["describe", write_desc(desc)]) == 3
    assert time.perf_counter() - t0 < 1
    assert f"{name} has more than 2000000 elements" in capsys.readouterr().err
    assert calls == []
    # the counter does see the closure of a subgroup family within the bound
    assert main(["describe", write_desc(within)]) == 0
    assert calls


def test_suite_progress_goes_to_stderr(capsys):
    code = main(["suite", "--check", "lemma_fact,eq_powers,question_none", "--json"])
    out, err = capsys.readouterr()
    assert code == 0
    # the stdout of the same command before progress lines were added
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "22ec29f858161f23e96a7037180ea951cabda4ac8b53ccdc5cab9216e5f01609"
    )
    lines = err.splitlines()
    assert len(lines) == len(json.loads(out)["records"]) == 14
    # run order, not the sorted order of the records
    assert lines[0].startswith('question_none_dihedral {"c": 2, "p": 2} ')
    assert lines[0].endswith(" ms (1 passed, 0 failed)")
    assert lines[-1].endswith(" ms (14 passed, 0 failed)")


def test_describe_and_upper_series_digest(write_desc, capsys):
    """`describe --json` and `series --upper --json` stdout on every suite
    family and on a quotient of a native group (tuple path), pinned as
    recorded before the ucs was read from one layer labelling."""
    quotient = {"op": "central_quotient", "group": {"family": "Mc", "p": 3, "c": 4}, "word": "s4"}
    h = hashlib.sha256()
    for desc in [*SUITE_FAMILIES, quotient]:
        path = write_desc(desc)
        for argv in (["describe", path, "--json"], ["series", path, "--upper", "--json"]):
            assert main(argv) == 0
            h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == "125377863d462c814360fae393bb402fbe13831d9b1a3c4e3ce3bc685f4de14d"


@pytest.mark.parametrize(
    "argv",
    [
        ["describe", "--seed", "3"],
        ["spectrum", "--seed", "3"],
        ["series", "--upper", "--check", "x"],
        ["verify", "--decompose-bound", "10"],
        ["decompose", "--timings"],
        ["suite", "--paper"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_flags_a_command_ignores_exit_2(write_desc, capsys, argv):
    command, *flags = argv
    path = [] if command == "suite" else [write_desc({"family": "Dc", "p": 3, "c": 2})]
    with pytest.raises(SystemExit) as exc:
        main([command, *path, *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_flags_a_command_reads_are_accepted():
    parse = build_parser().parse_args
    common = ["--json", "--max-order", "9"]
    assert parse(["suite", *common, "--decompose-bound", "5", "--seed", "1", "--check", "a", "--timings"])
    assert parse(["verify", "f.json", *common, "--seed", "1", "--check", "a", "--timings"])
    assert parse(["decompose", "f.json", *common, "--decompose-bound", "5"])
    for command in ("describe", "spectrum"):
        assert parse([command, "f.json", *common])
