import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgs.cli
import pgs.groups
import pgs.series
from pgs.cli import build_parser, main
from pgs.constructions import LieBCHGroup, SemidirectGroup, build_from_description
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


def test_decompose_cyclic_center_builds_no_table(write_desc, capsys, monkeypatch):
    # Z(Mc(3,8)) has order 3, so its 19,683 elements are indecomposable
    # before the search forms a conjugacy class; the full search takes 7.6 s
    # on Mc(3,7), a third the size
    classes = []
    monkeypatch.setattr(pgs.groups, "_conjugacy_classes_idx", lambda *args: classes.append(args) or [])
    code = main(["decompose", write_desc({"family": "Mc", "p": 3, "c": 8})])
    assert code == 0 and capsys.readouterr().out.strip() == "decomposable: no"
    assert classes == []


@pytest.mark.parametrize(
    "desc",
    [{"family": "homocyclic", "p": 5, "k": 3, "e": 2, "s": 1}, {"family": "Mc", "p": 3, "c": 12}],
    ids=["homocyclic(5,3,2,1)", "Mc(3,12)"],
)
def test_decompose_over_its_bound_exits_3_before_enumerating(write_desc, capsys, monkeypatch, native_multiplies, desc):
    """The decomposition bound is checked on the known order, before the
    carrier is built: closing homocyclic (5,3,2,1) took 5.2 s and
    enumerating Mc(3,12) 1.1 s before the search refused them."""
    subgroup_multiplies = []
    monkeypatch.setattr(SubgroupGroup, "multiply", lambda self, a, b: subgroup_multiplies.append(1))
    build_from_description(desc)
    building = len(native_multiplies)  # homocyclic forms a_1^5 when it is built
    t0 = time.perf_counter()
    assert main(["decompose", write_desc(desc)]) == 3
    assert time.perf_counter() - t0 < 1
    assert "exceeds the decomposition bound 20000" in capsys.readouterr().err
    assert len(native_multiplies) == 2 * building and subgroup_multiplies == []


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


def test_partb_cs_must_be_a_nonempty_increasing_list(write_desc, capsys):
    base = {"family": "partb", "p": 2, "c": 3}
    for cs in ([], [3, 2], [2, 2]):
        for indecomposable in (False, True):
            assert main(["describe", write_desc(dict(base, cs=cs, indecomposable=indecomposable))]) == 2
            assert "cs must be a nonempty, strictly increasing list" in capsys.readouterr().err


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
    one_factor = dict(K_DESC, word="f0.x^3*f0.y^3")
    assert main(["verify", write_desc(one_factor), "--check", "prop_same"]) == 2
    assert "f0.<w>*f1.<w>" in capsys.readouterr().err


def test_prop_same_word_terms_in_either_order(write_desc, capsys):
    """f1.d^3*f0.x^3 names the same z as f0.x^3*f1.d^3, so pgs verify gives
    the same records for both, apart from the word param."""
    records = []
    for word in ("f0.x^3*f1.d^3", "f1.d^3*f0.x^3"):
        assert main(["verify", write_desc(dict(K_DESC, word=word)), "--json"]) == 1
        out = json.loads(capsys.readouterr().out)
        (prop,) = [r for r in out["records"] if r["check"] == "prop_same"]
        assert prop["params"].pop("word") == word
        records.append(out)
    assert records[0] == records[1]


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its file descriptor is a pipe the test owns."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_141_quietly(write_desc, capsys, monkeypatch):
    """Code 1 means a failed check, so a reader that leaves early gets 141
    (128 + SIGPIPE), no traceback, and stdout pointed at devnull so the
    interpreter's final flush writes nowhere."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        monkeypatch.setattr("sys.stdout", _ClosedStdout(write_end))
        assert main(["spectrum", write_desc({"family": "Dc", "p": 3, "c": 2}), "--json"]) == 141
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    finally:
        os.close(write_end)
    assert capsys.readouterr().err == ""


def test_closed_pipe_exits_141_quietly(write_desc):
    """The same through a real pipe: ``pgs spectrum X --json | true``."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pgs.cli.__file__)))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before pgs writes
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pgs.cli", "spectrum", write_desc({"family": "Dc", "p": 3, "c": 2}), "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert run.returncode == 141 and run.stderr == b""


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


def test_verify_closes_omega1_once(write_desc, capsys, monkeypatch):
    """lemma2 (Omega_1 is not G: not applicable) and the question (Omega_1
    is nonabelian) read one Omega_1: one closure of the order-p elements,
    which a quotient of a product closes as indices."""
    desc = {"family": "second_example", "p": 3, "k": 2, "c": 2}
    G = build_from_description(desc)
    small = set(pgs.groups.order_p_elements(G))
    order_p = [i for i, g in enumerate(pgs.groups.enumerate_group(G).elements) if g in small]
    seed_lists = []
    real = pgs.groups._close

    def recording(mult, identity, seeds, *args):
        seeds = list(seeds)
        seed_lists.append(seeds)
        return real(mult, identity, seeds, *args)

    monkeypatch.setattr(pgs.groups, "_close", recording)
    assert main(["verify", write_desc(desc), "--json"]) == 0
    records = {r["check"]: r for r in json.loads(capsys.readouterr().out)["records"]}
    assert not records["lemma2"]["details"]["applicable"] and records["question_witness"]["details"]["applicable"]
    assert seed_lists.count(order_p) == 1


@pytest.mark.parametrize("argv", [["spectrum"], ["series", "--lower"]], ids=["spectrum", "series--lower"])
def test_spectrum_and_lower_series_build_no_carrier_set(write_desc, capsys, monkeypatch, argv):
    """Neither command reads the carrier's frozenset, so none is built."""
    built = []
    real = pgs.cli.build_from_description
    monkeypatch.setattr(pgs.cli, "build_from_description", lambda *a: built.append(real(*a)) or built[-1])
    assert main([*argv, write_desc({"family": "Dc", "p": 3, "c": 5}), "--json"]) == 0
    capsys.readouterr()
    assert len(built) == 1 and pgs.groups.enumerate_group(built[0])._set is None


def test_verify_on_mc_enumerates_one_group(write_desc, capsys, monkeypatch):
    """lemma_fact and eq_powers check the group the other checks analysed;
    lemma_fact's own copy of Mc(3,4) was a second enumeration."""
    enumerated = []
    real = SemidirectGroup._carrier
    monkeypatch.setattr(SemidirectGroup, "_carrier", lambda self: enumerated.append(self) or real(self))
    assert main(["verify", write_desc({"family": "Mc", "p": 3, "c": 4}), "--json"]) == 0
    records = {r["check"]: r for r in json.loads(capsys.readouterr().out)["records"]}
    assert records["lemma_fact"]["pass"] and records["eq_powers"]["pass"]
    assert records["lemma_fact"]["params"] == records["eq_powers"]["params"] == {"p": 3, "c": 4}
    assert len(enumerated) == 1


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
    one is refused before its carrier is built or anything multiplied."""
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
    # the counter does see the analysis of a subgroup family within the bound
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


# descriptions drawn near the grammar: every family with in-range
# parameters, now and then one of another JSON type or an extreme
# integer, nested products and quotients, valid and invalid words
_FAMILY_RANGES = {
    "Mc": {"c": (2, 6)},
    "Dc": {"c": (2, 4)},
    "homocyclic": {"k": (1, 3), "e": (1, 3), "s": (0, 1)},
    "B2": {"k": (2, 4)},
    "second_example": {"k": (2, 3), "c": (2, 3)},
    "cyclic": {"e": (1, 4)},
    "partb": {"c": (2, 5)},
}
_BAD = st.one_of(
    st.booleans(), st.floats(), st.text(max_size=3), st.lists(st.integers(0, 4), max_size=3), st.none(),
    st.sampled_from([-1, 2**31, 2**63, 10**30, -(10**30)]),
)
_P = st.shared(st.sampled_from([2, 3, 5, 7]), key="p")  # one prime per description, so products can form
_NAMES = ["x", "y", "s1", "s2", "s3", "d", "a", "t", "yp", "q"]
_TERM = st.tuples(
    st.sampled_from(["", "f0.", "f1.", "f2.", "f0.f1."]),
    st.sampled_from(_NAMES),
    st.sampled_from(["", "^2", "^3", "^4", "^9", "^-1", "^" + "9" * 40]),
)


def _or_bad(strategy, bad=_BAD):
    """``strategy``, or one draw in about sixteen ``bad`` (the last choice,
    as hypothesis favours the first)."""
    return st.sampled_from(range(16)).flatmap(lambda k: bad if k == 15 else strategy)


_WORD = _or_bad(
    st.lists(_TERM, min_size=1, max_size=2).map(lambda ts: "*".join("".join(t) for t in ts)),
    st.sampled_from(["", "a b", "**", "f0.", "x^"]) | _BAD,
)


@st.composite
def _family(draw):
    family = draw(st.sampled_from([*_FAMILY_RANGES, "Xc"]))
    desc = {"family": family, "p": draw(_or_bad(_P))}
    for key, (lo, hi) in _FAMILY_RANGES.get(family, {}).items():
        desc[key] = draw(_or_bad(st.integers(lo, hi)))
    if family == "partb":
        desc["cs"] = draw(_or_bad(st.lists(st.integers(2, 5), min_size=1, max_size=2, unique=True).map(sorted)))
        desc["indecomposable"] = draw(_or_bad(st.booleans()))
    if draw(st.sampled_from(range(20))) == 19:  # a missing parameter
        desc.pop(draw(st.sampled_from(list(desc)[1:])))  # any but "family"
    return desc


_DESCRIPTIONS = _or_bad(
    st.recursive(
        _family(),
        lambda inner: st.one_of(
            st.fixed_dictionaries({"op": st.just("product"), "factors": _or_bad(st.lists(inner, min_size=1, max_size=3))}),
            st.fixed_dictionaries({"op": st.just("central_quotient"), "group": inner, "word": _WORD}),
        ),
        max_leaves=4,
    ),
    _BAD | st.just({"op": "nosuch"}),
)

_COMMANDS = st.sampled_from(
    [["describe"], ["spectrum"], ["series", "--upper"], ["series", "--lower"], ["verify"], ["decompose"]]
)
_MAX_ORDER = st.sampled_from([2000, 729, 100]) | st.integers(1, 2000)
_FUZZ_MULTIPLIES = 1_000_000  # the work one drawn run may do, in native and product index multiplies


@settings(max_examples=200)
@given(_DESCRIPTIONS, _COMMANDS, _MAX_ORDER, st.booleans())
def test_drawn_descriptions_exit_0_to_3(desc, command, max_order, as_json):
    """Every drawn input gets an answer or a clean exit 2 or 3, with no
    uncaught exception, within a bounded number of multiplies."""
    calls = []

    def counting(real):
        def multiply(self, *args):
            calls.append(1)
            if len(calls) > _FUZZ_MULTIPLIES:
                pytest.fail(f"more than {_FUZZ_MULTIPLIES} multiplies")
            return real(self, *args)

        return multiply

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for cls in (SemidirectGroup, LieBCHGroup):
            mp.setattr(cls, "multiply", counting(cls.multiply))
        mp.setattr(DirectProductGroup, "_index_product", counting(DirectProductGroup._index_product))
        path = os.path.join(tmp, "desc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(desc, fh)
        argv = [*command[:1], path, *command[1:], "--max-order", str(max_order)] + ["--json"] * as_json
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3)
