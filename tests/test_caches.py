from freeroots import (clear_caches, supergraph, heaps, superlie, chromatic,
                       multiplicity, free_roots_up_to, lyndon_heap_basis,
                       lln_basis, super_lyndon_heaps, k_chromatic_join,
                       k_chromatic_bond, mult_free_root)

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
        k_chromatic_bond(graph, (0, 1, 2, 1, 0, 0),
                         lambda b: mult_free_root(graph, b)).to_json(),
    )


def test_clear_caches_empties_every_cache_and_the_registry(path6):
    caches = module_caches()
    for name in ("freeroots.chromatic._tuple_counts",
                 "freeroots.chromatic._linear_plain",
                 "freeroots.chromatic._nonempty_independent_sets",
                 "freeroots.multiplicity._mult_recursion",
                 "freeroots.heaps._superpose_plain",
                 "freeroots.superlie.expand_monomial",
                 "freeroots.supergraph.plain"):
        assert name in caches
    before = snapshot(path6)
    assert heaps._REGISTRY
    assert caches["freeroots.chromatic._linear_plain"].cache_info().currsize
    clear_caches()
    assert {name: f.cache_info().currsize for name, f in caches.items()
            if f.cache_info().currsize} == {}
    assert heaps._REGISTRY == {}
    assert snapshot(path6) == before
