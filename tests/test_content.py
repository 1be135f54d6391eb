import numpy as np
import pytest

from mecsim.content import (Catalog, DemandProfile, build_demand, demand_rng,
                            draw_requests, place_cache, zipf_popularity)

# Pinned regression vector for 20 files at exponent 0.8 (direct evaluation).
ZIPF_20_08 = np.array([
    0.21229198890532436, 0.12192972921729743, 0.08815289960395889,
    0.070030239688571749, 0.058581110796654227, 0.050630545381643181,
    0.044756402806858012, 0.040221810565155218, 0.036604931484490691,
    0.033646012803007878, 0.03117593287621067, 0.029079612096248122,
    0.02727588960294406, 0.025705803139911238, 0.024325434065478931,
    0.023101363815598078, 0.022007690445260217, 0.021024012290506818,
    0.020134030635368023, 0.019324559779512161,
])


def test_zero_exponent_is_exactly_uniform():
    p = zipf_popularity(4, 0.0)
    assert np.all(p == 0.25)


def test_two_file_normalization_by_hand():
    assert zipf_popularity(2, 1.0) == pytest.approx([2 / 3, 1 / 3], rel=1e-15)


def test_pinned_popularity_vector():
    p = zipf_popularity(20, 0.8)
    assert p == pytest.approx(ZIPF_20_08, rel=1e-13)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(np.diff(p) < 0)


@pytest.mark.parametrize("n_files", [1, 7, 100, 1000, 10000])
@pytest.mark.parametrize("delta", [0.0, 0.3, 1.0, 2.5, 10.0])
def test_normalization_over_parameter_grid(n_files, delta):
    p = zipf_popularity(n_files, delta)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p > 0)


def test_head_mass_grows_with_exponent():
    deltas = [0.0, 0.4, 0.8, 1.2, 2.0, 5.0]
    heads = [zipf_popularity(50, d)[0] for d in deltas]
    assert np.all(np.diff(heads) >= 0)


def test_invalid_popularity_args():
    with pytest.raises(ValueError):
        zipf_popularity(0, 1.0)
    with pytest.raises(ValueError):
        zipf_popularity(5, -0.1)


def test_exhaustive_request_draw_sets_everything():
    cat = Catalog.build(6, 1.1)
    req = draw_requests(cat, 4, 6, np.random.default_rng(0))
    assert np.all(req == 1)


def test_heavy_tail_exponent_concentrates_requests():
    cat = Catalog.build(10, 50.0)
    rng = np.random.default_rng(123)
    req = draw_requests(cat, 10000, 1, rng)
    freq = req[:, 0].mean()
    assert freq >= 0.99


def test_zero_devices_gives_empty_matrix():
    cat = Catalog.build(5, 0.7)
    req = draw_requests(cat, 0, 1, np.random.default_rng(0))
    assert req.shape == (0, 5)


def test_requests_are_distinct_per_device():
    cat = Catalog.build(12, 0.9)
    req = draw_requests(cat, 50, 3, np.random.default_rng(3))
    assert np.all(req.sum(axis=1) == 3)


def test_unconstrained_capacity_caches_everything():
    cat = Catalog.build(20, 0.6)
    cache = place_cache(cat, [21 * cat.file_size_bytes])
    assert np.all(cache == 1)


def test_zero_capacity_caches_nothing():
    cat = Catalog.build(20, 0.6)
    assert np.all(place_cache(cat, [0.0]) == 0)


def test_reference_capacity_fits_whole_catalog():
    # 20 files of 5 MB = 100 MB against 2 GB of storage: everything cached.
    cat = Catalog.build(20, 0.6, file_size_bytes=5e6)
    cache = place_cache(cat, [2e9])
    assert np.all(cache == 1)


def test_popular_first_takes_the_head():
    cat = Catalog.build(10, 1.0, file_size_bytes=1e6)
    cache = place_cache(cat, [3.5e6])
    assert cache[0].tolist() == [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]


def test_sampled_policy_respects_capacity_and_distinctness():
    cat = Catalog.build(20, 0.8, file_size_bytes=5e6)
    rng = np.random.default_rng(5)
    storage = np.array([28e6, 12e6, 0.0, 200e6])
    cache = place_cache(cat, storage, policy="sampled", rng=rng)
    counts = cache.sum(axis=1)
    assert counts.tolist() == [5, 2, 0, 20]
    assert np.all(cache.sum(axis=1) * cat.file_size_bytes <= storage + 1e-6)


def test_capacity_never_violated_randomized():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        cat = Catalog.build(n, float(rng.uniform(0, 3)),
                            file_size_bytes=float(rng.uniform(1e5, 1e7)))
        storage = rng.uniform(0, n * cat.file_size_bytes, size=3)
        for policy in ("popular_first", "sampled"):
            cache = place_cache(cat, storage, policy=policy, rng=rng)
            used = cache.sum(axis=1) * cat.file_size_bytes
            assert np.all(used <= storage + 1e-6)


def test_demand_validation_catches_bad_profiles():
    cat = Catalog.build(4, 0.5, file_size_bytes=1e6)
    demand = build_demand(cat, 2, 3, 2, demand_rng(0, 0.5),
                          storage_bytes=2e6)
    demand.validate()
    broken = DemandProfile(
        catalog=cat, request=demand.request,
        cache=np.ones((2, 4), dtype=np.int8),   # 4 MB cached in 2 MB
        task_input_bytes=demand.task_input_bytes,
        task_cycles=demand.task_cycles, local_cps=demand.local_cps,
        edge_cps=demand.edge_cps, storage_bytes=demand.storage_bytes,
        hrd_weight=demand.hrd_weight, csd_weight=demand.csd_weight)
    with pytest.raises(ValueError, match="storage"):
        broken.validate()


@pytest.mark.parametrize("field, kw", [
    ("task_input_bytes", {"task_input_bytes": -1.0}),
    ("task_cycles", {"task_cycles": -1.0}),
    ("storage_bytes", {"storage_bytes": -5.0}),
])
def test_negative_task_sizes_are_rejected(field, kw):
    cat = Catalog.build(4, 0.5, file_size_bytes=1e6)
    with pytest.raises(ValueError, match=f"{field} must not be negative"):
        build_demand(cat, 2, 3, 2, demand_rng(0, 0.5), **kw)
    if field == "task_input_bytes":
        # Zero input bytes leave no uplink cost to split: rejected too.
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            build_demand(cat, 2, 3, 2, demand_rng(0, 0.5), **{field: 0.0})
        return
    # Zero stays allowed.
    zero = build_demand(cat, 2, 3, 2, demand_rng(0, 0.5), **{field: 0.0})
    assert np.all(getattr(zero, field) == 0.0)


def test_demand_rng_is_keyed_by_delta():
    a = demand_rng(5, 0.6).random(4)
    b = demand_rng(5, 0.6).random(4)
    c = demand_rng(5, 1.0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _reference_draws(catalog, n_hrd, requests_per_hrd, storage, policy, rng):
    """Reference for ``draw_requests`` then ``place_cache``: one
    ``rng.choice`` call per device and per SBS with room for a file."""
    req = np.zeros((n_hrd, catalog.n_files), dtype=np.int8)
    for k in range(n_hrd):
        req[k, rng.choice(catalog.n_files, size=requests_per_hrd,
                          replace=False, p=catalog.popularity)] = 1
    cache = np.zeros((len(storage), catalog.n_files), dtype=np.int8)
    by_pop = np.argsort(-catalog.popularity, kind="stable")
    for n, cap in enumerate(storage):
        slots = min(int(cap // catalog.file_size_bytes), catalog.n_files)
        if slots > 0:
            cache[n, by_pop[:slots] if policy == "popular_first" else
                  rng.choice(catalog.n_files, size=slots, replace=False,
                             p=catalog.popularity)] = 1
    return req, cache


def _assert_draws_match_reference(catalog, n_hrd, requests_per_hrd, storage,
                                  policy, seed):
    rng, ref = demand_rng(seed, catalog.delta), demand_rng(seed, catalog.delta)
    req = draw_requests(catalog, n_hrd, requests_per_hrd, rng)
    cache = place_cache(catalog, storage, policy, rng)
    ref_req, ref_cache = _reference_draws(catalog, n_hrd, requests_per_hrd,
                                          storage, policy, ref)
    assert req.dtype == ref_req.dtype and req.tobytes() == ref_req.tobytes()
    assert cache.dtype == ref_cache.dtype
    assert cache.tobytes() == ref_cache.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


# Per-SBS storage from none to the whole catalog: 0, 2, 5 and 20 files of 5 MB.
MIXED_STORAGE = np.resize([28e6, 2e9, 12e6, 0.0, 28e6], 15)


@pytest.mark.parametrize("delta", [0.0, 0.6, 1.4])
@pytest.mark.parametrize("policy", ["popular_first", "sampled"])
@pytest.mark.parametrize("requests_per_hrd", [1, 2, 3])
def test_batched_demand_draws_match_per_call_choice(requests_per_hrd, policy,
                                                    delta):
    catalog = Catalog.build(20, delta)
    for seed in range(200):
        _assert_draws_match_reference(catalog, 20, requests_per_hrd,
                                      MIXED_STORAGE, policy, seed)


@pytest.mark.parametrize("n_hrd", [0, 1, 80])
def test_batched_demand_draws_match_on_a_large_catalog(n_hrd):
    catalog = Catalog.build(1000, 0.6)
    storage = np.resize([250e6, 2e9, 0.0], 10)    # 50, 400 and 0 files
    for seed in range(20):
        for requests_per_hrd in (1, 2):
            _assert_draws_match_reference(catalog, n_hrd, requests_per_hrd,
                                          storage, "sampled", seed)


def test_demand_draws_reject_a_popularity_that_is_not_a_distribution():
    cat = Catalog(n_files=3, file_size_bytes=1e6, delta=0.0,
                  popularity=np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError, match="probability"):
        draw_requests(cat, 2, 2, np.random.default_rng(0))
    sparse = Catalog(n_files=3, file_size_bytes=1e6, delta=0.0,
                     popularity=np.array([0.5, 0.5, 0.0]))
    with pytest.raises(ValueError, match="nonzero"):
        place_cache(sparse, [3e6], "sampled", np.random.default_rng(0))

