"""Exact combinatorics of free root spaces over supergraphs.

Heap monoids, super Lyndon heaps, Lyndon-heap and left-normed bases of free
partially commutative Lie superalgebras, and free-root multiplicities via
k-chromatic polynomials and Moebius inversion.  Everything is exact
(integers and fractions), deterministic, and cross-checked by independent
oracles.
"""

from .errors import InputError, ConsistencyError
from .supergraph import (Supergraph, BkmSupermatrix, validate_supermatrix,
                         symmetrizer, quasi_dynkin, is_free_weight,
                         is_connected_support, join_graph, independent_sets,
                         graph_from_document, load_graph, parse_weight,
                         ht, support, weight_parity)
from .heaps import (Heap, heap_from_word, heap_from_pieces, superpose,
                    standard_word, enumerate_heaps, heaps_up_to,
                    classify, lyndon_heaps, super_lyndon_heaps,
                    conjugacy_class)
from .superlie import (LieMonomial, leaf, bracket, left_normed,
                       HeapPolynomial, bracket_expand, expand_monomial,
                       lambda_monomial, lyndon_heap_basis,
                       super_letter_alphabet, lln_basis, lambda_equals_e,
                       span_membership, GradedBasis, RankCertificate)
from .chromatic import (RationalPoly, linear_coefficient,
                        k_chromatic_direct, k_chromatic_join,
                        k_chromatic_bond, bond_lattice)
from .multiplicity import (mult_free_root, free_roots_up_to,
                           MultiplicityTable, MultRecord, verify_pbw,
                           verify_cartier_foata, moebius)

from . import supergraph, heaps, superlie, chromatic, multiplicity

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every module-level cache and the heap registry.

    The caches and the registry grow for the life of the process; a
    long-lived caller can release them here.  Values computed afterwards
    equal the earlier ones.  Nothing in the library calls this.  The table
    of live supergraphs is left alone: it is weak, and emptying it would
    give a graph that is still alive a second, distinct equal twin.
    """
    for module in (supergraph, heaps, superlie, chromatic, multiplicity):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    heaps._REGISTRY.clear()
