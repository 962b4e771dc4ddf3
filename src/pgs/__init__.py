"""Exact toolkit for finite p-groups.

Construction of metacyclic, maximal-class, homocyclic-extension and
exponent-p families; upper/lower central series; the order-p spectrum; and
verifiers for the structural statements relating them.
"""

from .constructions import (
    GroupDescription,
    build_from_description,
    central_quotient,
    evaluate_word,
    make_B2,
    make_Dc,
    make_Mc,
    make_cyclic,
    make_homocyclic,
    make_partb_decomposable,
    make_partb_indecomposable,
    make_second_example,
    parse_description,
)
from .cyclo import CycloRing, RingElem, eq_powers_witness, mc_bottom, ring_make
from .groups import (
    DEFAULT_DECOMPOSE_BOUND,
    DEFAULT_MAX_ORDER,
    EnumeratedSubgroup,
    FiniteGroup,
    center,
    commutator,
    direct_factor_search,
    direct_product,
    element_order,
    enumerate_group,
    generated_by_order_p,
    is_pth_power,
    omega1_subgroup,
    order_p_elements,
    quotient_group,
    subgroup_closure,
)
from .linalg import (
    AbelianInvariants,
    EchelonBasis,
    echelonize,
    quotient_structure,
    submodule_member,
)
from .series import (
    CentralSeriesChain,
    SpectrumReport,
    is_central_series,
    layer_index,
    lower_central_series,
    nilpotence_class,
    satisfies_ucs_characterization,
    spectrum,
    upper_central_series,
)
from .verify import (
    find_question_witness,
    random_recipes,
    run_check,
    run_paper_suite,
    verify_eq_powers,
    verify_lemma2,
    verify_lemma_fact,
    verify_partb_structure,
    verify_prop_same,
    verify_product_spectrum,
    verify_question,
    verify_regularity_power,
    verify_theorem_part1,
)

__all__ = [name for name in dir() if not name.startswith("_")]
