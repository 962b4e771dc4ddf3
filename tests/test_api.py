"""The enumeration bound is fixed when a group is built, so no function that
analyses a group takes one."""

import inspect

import pytest

import pgs.groups
import pgs.series
import pgs.verify


def functions_of(module):
    return {
        name: fn
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
    }


@pytest.mark.parametrize("module", [pgs.groups, pgs.series], ids=lambda m: m.__name__)
def test_public_analysis_takes_no_bound(module):
    public = {name: fn for name, fn in functions_of(module).items() if not name.startswith("_")}
    assert public
    assert [name for name, fn in public.items() if "max_order" in inspect.signature(fn).parameters] == []


def test_verifiers_of_a_group_take_no_bound():
    on_groups = {
        name: fn
        for name, fn in functions_of(pgs.verify).items()
        if (params := list(inspect.signature(fn).parameters.values()))
        and params[0].annotation in ("FiniteGroup", pgs.groups.FiniteGroup)
    }
    assert {
        "verify_theorem_part1",
        "verify_lemma2",
        "find_question_witness",
        "verify_regularity_power",
        "verify_product_spectrum",
        "verify_prop_same",
    } <= set(on_groups)
    assert [name for name, fn in on_groups.items() if "max_order" in inspect.signature(fn).parameters] == []
