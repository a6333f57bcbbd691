from freeroots import (clear_caches, supergraph, heaps, superlie, chromatic,
                       multiplicity, free_roots_up_to, lyndon_heap_basis,
                       lln_basis, super_lyndon_heaps, k_chromatic_join,
                       k_chromatic_bond)
from freeroots.heaps import enumerate_heaps, heap_from_word
from freeroots.superlie import expand_monomial, left_normed
from freeroots.supergraph import plain

MODULES = (supergraph, heaps, superlie, chromatic, multiplicity)


def module_caches():
    """Every lru_cache bound at module level, by qualified name."""
    return {f"{m.__name__}.{name}": obj for m in MODULES
            for name, obj in vars(m).items() if hasattr(obj, "cache_info")}


def snapshot(graph):
    """Results that pass through every module's caches."""
    k = (0, 0, 2, 1, 2, 1)
    return (
        free_roots_up_to(graph, (0, 1, 2, 1, 1, 2)).to_json(),
        lyndon_heap_basis(graph, k).to_json(),
        lln_basis(graph, k, "3").to_json(),
        [h.word() for h in super_lyndon_heaps(graph, k)],
        k_chromatic_join(graph, (0, 1, 2, 1, 0, 0)).to_json(),
        k_chromatic_bond(graph, (0, 1, 2, 1, 0, 0)).to_json(),
    )


def test_clear_caches_empties_every_cache_and_the_registry(path6):
    caches = module_caches()
    for name in ("freeroots.chromatic._tuple_counts",
                 "freeroots.chromatic._log_table",
                 "freeroots.chromatic._nonempty_independent_sets",
                 "freeroots.multiplicity._mults",
                 "freeroots.heaps._superpose_plain",
                 "freeroots.superlie.expand_monomial",
                 "freeroots.supergraph.plain"):
        assert name in caches
    before = snapshot(path6)
    assert heaps._REGISTRY
    assert caches["freeroots.chromatic._log_table"].cache_info().currsize
    clear_caches()
    assert {name: f.cache_info().currsize for name, f in caches.items()
            if f.cache_info().currsize} == {}
    assert heaps._REGISTRY == {}
    assert snapshot(path6) == before


def test_heaps_kept_across_clear_caches_equal_the_rebuilt_ones(path6):
    """Heaps compare by graph and standard word, so old values still read new heaps."""
    for graph in (path6, plain(path6)):
        k = (0, 0, 2, 1, 2, 1)
        old_heaps = enumerate_heaps(graph, k)
        old_poly = expand_monomial(left_normed("345653"), graph)
        assert old_poly.terms
        clear_caches()
        assert heaps._REGISTRY == {}
        new_heaps = enumerate_heaps(graph, k)
        assert new_heaps == old_heaps
        for old, new in zip(old_heaps, new_heaps):
            assert old is not new and old == new and hash(old) == hash(new)
        for h, c in old_poly.terms.items():
            new = heap_from_word(graph, h.word())
            assert new is not h and old_poly.coefficient(new) == c != 0
        assert expand_monomial(left_normed("345653"), graph).terms == old_poly.terms


def test_bases_read_every_product_from_the_plain_cache(path6):
    """The bracket takes each product from the plain twin's cache; the
    signed product's own cache serves direct callers only."""
    clear_caches()
    k = (0, 0, 2, 1, 2, 1)
    lyndon_heap_basis(path6, k)
    lln_basis(path6, k, "3")
    assert superlie.signed_superpose.cache_info().currsize == 0
    assert heaps._superpose_plain.cache_info().hits > 0
