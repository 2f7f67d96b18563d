"""Traffic generation: the traces are pinned, the draws are exact, and
every request object is built once.

* Golden digests — SHA-256 over every request's ``float.hex`` arrival,
  id, scene, pipeline, resolution, tenant and SLO, for every pattern x
  two seeds in several shapes (default mix, pipeline runs of 3 over 5
  scenes, one scene, one pipeline), for a two-tenant mix with a
  per-tenant override, and for the CLI-default federation regions. The
  digests were captured from the per-request scalar generators that
  the columnar ones replaced, so any change to the random stream, the
  merge order or the arithmetic of an arrival shows here.
* A scalar reference — the per-request loop the generators were first
  written as, one ``rng.exponential`` / ``rng.integers`` call per draw —
  equals ``generate_traffic`` on randomized patterns, sizes, scene and
  pipeline counts, run lengths and seeds.
* The bulk bounded draw equals NumPy's scalar ``rng.integers(r)`` draw
  by draw, on ranges that include 1 (no bits consumed) and ranges
  large enough that Lemire's rejection step runs often.
* One ``RenderRequest`` construction per generated request.
* Non-finite or non-positive inputs fail with a ``ConfigError`` that
  names the field.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser
from repro.errors import ConfigError
from repro.serve import (
    RenderRequest,
    TRAFFIC_PATTERNS,
    generate_federation_traffic,
    generate_tenant_traffic,
    generate_traffic,
    parse_region_spec,
)
from repro.serve.traffic import _bounded_draws

TENANTS = "premium:tier=0,weight=4,share=0.25;economy:tier=1,slo=2"
TENANT_OVERRIDES = {"premium": {"pattern": "diurnal", "scenes": ("lego",),
                                "slo_s": 0.03, "pipeline_run_length": 2}}
SHAPES = {
    "default": {},
    "run3_5scenes": {"pipeline_run_length": 3,
                     "scenes": ("lego", "room", "chair", "ship", "drums")},
    "one_scene": {"scenes": ("lego",)},
    "one_pipeline": {"pipelines": ("mesh",)},
}
SEEDS = (0, 11)


def _request_line(request: RenderRequest) -> str:
    tenant = request.tenant
    return (f"{request.arrival_s.hex()}|{request.request_id}|{request.scene}|"
            f"{request.pipeline}|{request.width}x{request.height}|"
            f"{tenant.name}:{tenant.tier}:{float(tenant.weight).hex()}:"
            f"{float(tenant.slo_multiplier).hex()}|{request.slo_s.hex()}|"
            f"{request.degraded}\n")


def trace_digest(requests) -> str:
    digest = hashlib.sha256()
    for request in requests:
        digest.update(_request_line(request).encode())
    return digest.hexdigest()


def federation_digest(streams) -> str:
    digest = hashlib.sha256()
    for region, requests in streams.items():
        digest.update(f"region {region}\n".encode())
        for request in requests:
            digest.update(_request_line(request).encode())
    return digest.hexdigest()


def _cli_regions():
    return parse_region_spec(build_parser().parse_args(["federate"]).regions)


def trace_cases() -> dict:
    """Case name -> zero-argument callable returning the trace digest."""
    cases = {}
    for pattern in TRAFFIC_PATTERNS:
        for shape, kwargs in SHAPES.items():
            for seed in SEEDS:
                cases[f"traffic/{pattern}/{shape}/{seed}"] = (
                    lambda p=pattern, k=kwargs, s=seed: trace_digest(
                        generate_traffic(pattern=p, n_requests=600,
                                         rate_rps=150.0, seed=s, **k)))
    for seed in SEEDS:
        cases[f"tenants/bursty/{seed}"] = lambda s=seed: trace_digest(
            generate_tenant_traffic(TENANTS, pattern="bursty",
                                    n_requests=600, rate_rps=300.0, seed=s,
                                    overrides=TENANT_OVERRIDES))
        cases[f"federation/cli/{seed}"] = lambda s=seed: federation_digest(
            generate_federation_traffic(_cli_regions(),
                                        n_requests_per_region=500,
                                        rate_rps=150.0, seed=s))
    cases["federation/steady_kwargs/3"] = lambda: federation_digest(
        generate_federation_traffic(
            parse_region_spec("east:chips=2;west:tz=8,chips=2"),
            n_requests_per_region=300, rate_rps=200.0, seed=3,
            pattern="steady", scenes=("lego", "room", "ship"),
            resolution=(160, 90), slo_s=0.12))
    return cases


#: Captured from the scalar generators (one ``rng.integers`` call per
#: draw, ``dataclasses.replace`` per phase shift, tenant and renumbering).
GOLDEN: dict[str, str] = {
    "federation/cli/0":
        "7cc95af3dc8212b42d03bfe36ccc71f33460d9bc91f5a5c215bb8836dff59098",
    "federation/cli/11":
        "4c5c08b791cd36392905ba9dd984fd26ae9492d27ea59385ef180a165a331a4e",
    "federation/steady_kwargs/3":
        "a58d9f911ae5c106107e6ab9cf9d1a7ce1be564de0b537f3441ba43f08d98730",
    "tenants/bursty/0":
        "3a3a67e5b24ec7370ffed75063e2cf68d57a664a9e78bfdc7e03801e5db3f94e",
    "tenants/bursty/11":
        "45e8629bbe32c0ed3ed24bde1c598e8d42a48f1404cc8a038710021b811497be",
    "traffic/bursty/default/0":
        "c3e206b952c0ca56d70269c22d2c9e2115243b4adef5071022dff04eb0d55974",
    "traffic/bursty/default/11":
        "85c3c698fa545ec117d45d262618322e924d42ead6d64cf52bbc682b9fa7cc33",
    "traffic/bursty/one_pipeline/0":
        "162e58c9667da0b990e6cc27f34940456b1c8100f18e2d91a2255f97c1e2d90a",
    "traffic/bursty/one_pipeline/11":
        "11394d1d1148ad23bca6406924b432a7aed467c8599fce60614a773e1ac06615",
    "traffic/bursty/one_scene/0":
        "1c98e55bb209bc28a7f1599f09b8d758ed602377fc260da17e513dd4c897cac3",
    "traffic/bursty/one_scene/11":
        "e38ec8da9bfd524dbab155635436b00c3bd32d8842adcfab94d929404c462b42",
    "traffic/bursty/run3_5scenes/0":
        "f557637ff17b3c0e6a66943beefa292957d00ad811de7f19b6739c0cc5c5cf50",
    "traffic/bursty/run3_5scenes/11":
        "ecde619e3e98408d9ed09a0b075ab420ad3001aa82139a4680dccfec2acc33fe",
    "traffic/diurnal/default/0":
        "f8543e61c76c68b498dbd7d6a56dfab9281bc5ee692f6bad3080bf9632315e5b",
    "traffic/diurnal/default/11":
        "4e3f92d160ceb53f2318b5cac422d577794aba9450b3618e09e990ed05c0f252",
    "traffic/diurnal/one_pipeline/0":
        "0209393ac5cc01837e3d0ef47ad8796d17e938b5a878fccc7bf68eae956d6c79",
    "traffic/diurnal/one_pipeline/11":
        "34e4e42e21086ff355587cc7d51caa81ebbd42683819087028b10fe3bb9a4288",
    "traffic/diurnal/one_scene/0":
        "b6bd513933cd2b6ccb0c180192d48da83a45c8ebd5d5423e39c326edb1dda1e1",
    "traffic/diurnal/one_scene/11":
        "4a569458345b5a1943d7c58410c1431da2892a47850a29ff59987130456c11cf",
    "traffic/diurnal/run3_5scenes/0":
        "560c33dbf281de57f4e92ac3615ee978125b9ff632abf7b18902edcc1ee52737",
    "traffic/diurnal/run3_5scenes/11":
        "bae0820c9fbe2b134b52ad4f9ce68f785b8bee99f56f4424e46a8aad6b3537d9",
    "traffic/mixed/default/0":
        "47cba39d2e4092218ac31b0ce136069d768d649db1dde31fbae534c531c4b62a",
    "traffic/mixed/default/11":
        "7a3d763fd731ae15c70418aee234178d08094afa062e49badb3172c2bfd091b2",
    "traffic/mixed/one_pipeline/0":
        "92ec790525a288848387c3743408e7230640a8e9c01f998cc8c258da034c1df4",
    "traffic/mixed/one_pipeline/11":
        "142c48b222e594c97d1fa7ec8a4fe08ae96689f3c39fb2701af56de3630b5969",
    "traffic/mixed/one_scene/0":
        "309e427e77508caf644965cf6d2ff8c44bc1036c5d530e30a096a6da9073afab",
    "traffic/mixed/one_scene/11":
        "c4cac5f73bddc0e89126996f2fe596e8a6692da9711782e84556a0109e5ee762",
    "traffic/mixed/run3_5scenes/0":
        "a0d88091bbe451f146f1ddf7eb389b3c6d75211a136a92683081d22e84ce780e",
    "traffic/mixed/run3_5scenes/11":
        "1078910c17aacc7bae990960f6163e86fcc03394638c24e6c8610ac1cad60ac4",
    "traffic/steady/default/0":
        "b27e3835059f0a7508e7ca24f3073ed08e0dfd8a415fb952288c5f3c780d2339",
    "traffic/steady/default/11":
        "c4d7ae7d1e42ec7605138fde383905985da379b39717a1b1fb7998e4fa6c6714",
    "traffic/steady/one_pipeline/0":
        "92ec790525a288848387c3743408e7230640a8e9c01f998cc8c258da034c1df4",
    "traffic/steady/one_pipeline/11":
        "142c48b222e594c97d1fa7ec8a4fe08ae96689f3c39fb2701af56de3630b5969",
    "traffic/steady/one_scene/0":
        "977198832cdbc511780df0af85441159e08013f8b92a0dec3cb3d95b8ee8109d",
    "traffic/steady/one_scene/11":
        "52798884d078ca3825ddaa146df67f87b712ed065e86588a88a5a3afc073598c",
    "traffic/steady/run3_5scenes/0":
        "3558994fc7fbc884f810da4abf0e5556b152ef0491b4e4281a27d2663391cf9f",
    "traffic/steady/run3_5scenes/11":
        "7b30e21e1e8ba28d0643abf96a6d76ee84b642afbb76f699b0e1fb86e5a9ba61",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_trace_matches_golden(case):
    assert trace_cases()[case]() == GOLDEN[case]


def test_every_case_has_a_golden():
    assert sorted(trace_cases()) == sorted(GOLDEN)


# ----------------------------------------------------------------------
# The scalar reference
# ----------------------------------------------------------------------
def _reference_arrivals(pattern, n, rate_rps, rng):
    if pattern in ("steady", "mixed"):
        return np.cumsum(rng.exponential(1.0 / rate_rps, n)).tolist()
    times, t = [], 0.0
    if pattern == "bursty":
        while len(times) < n:
            size = min(16, n - len(times))
            for gap in rng.exponential(1.0 / (rate_rps * 10.0), size):
                t += gap
                times.append(t)
            t += size / rate_rps * (1.0 - 1.0 / 10.0)
        return times
    for _ in range(n):
        local_rate = rate_rps * (1.0 + 0.8 * np.sin(2.0 * np.pi * t / 4.0))
        t += rng.exponential(1.0 / max(local_rate, 1e-6))
        times.append(t)
    return times


def reference_traffic(pattern, n, rate_rps, seed, scenes, pipelines,
                      run_length):
    """(arrival, scene, pipeline) per request, one scalar draw at a time."""
    rng = np.random.default_rng(seed)
    arrivals = _reference_arrivals(pattern, n, rate_rps, rng)
    run_length = 1 if pattern == "mixed" else max(1, run_length)
    rows, pipeline = [], None
    for k in range(n):
        if k % run_length == 0:
            pipeline = pipelines[int(rng.integers(len(pipelines)))]
        rows.append((float(arrivals[k]),
                     scenes[int(rng.integers(len(scenes)))], pipeline))
    return rows


@given(pattern=st.sampled_from(TRAFFIC_PATTERNS),
       n=st.integers(1, 300),
       rate_rps=st.floats(0.5, 1e5),
       seed=st.integers(0, 2**64),
       n_scenes=st.integers(1, 6),
       n_pipelines=st.integers(1, 4),
       run_length=st.integers(-1, 7) | st.just(10**12))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_generate_traffic_equals_scalar_reference(
        pattern, n, rate_rps, seed, n_scenes, n_pipelines, run_length):
    scenes = tuple(f"scene{i}" for i in range(n_scenes))
    pipelines = tuple(f"pipeline{i}" for i in range(n_pipelines))
    trace = generate_traffic(pattern, n, rate_rps, seed, scenes, pipelines,
                             pipeline_run_length=run_length)
    assert [(r.arrival_s, r.scene, r.pipeline) for r in trace] == \
        reference_traffic(pattern, n, rate_rps, seed, scenes, pipelines,
                          run_length)
    assert [r.request_id for r in trace] == list(range(n))


# ----------------------------------------------------------------------
# The bulk bounded draw
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
def test_bounded_draws_equal_scalar_integers(seed):
    # 3 * 2**30 and 2**31 + 1 reject about one 32-bit value in four and
    # in two, so the rejection branch runs many times per case; ranges
    # of 1 must consume no bits at all.
    mix = np.random.default_rng(100 + seed)
    ranges = mix.choice([1, 2, 3, 5, 1, 3 * 2**30, 2**31 + 1, 7, 2**32 - 1],
                        size=3000).tolist()
    scalar = np.random.default_rng(seed)
    expected = [int(scalar.integers(r)) for r in ranges]
    bulk = np.random.default_rng(seed)
    assert _bounded_draws(bulk, ranges).tolist() == expected
    # Both generators end in the same state: the next value agrees.
    assert bulk.random() == scalar.random()


def test_bounded_draws_rejections_span_blocks():
    ranges = [2**31 + 1] * 40_000   # ~half of all values rejected
    scalar = np.random.default_rng(9)
    expected = [int(scalar.integers(r)) for r in ranges]
    bulk = np.random.default_rng(9)
    assert _bounded_draws(bulk, ranges).tolist() == expected
    assert bulk.random() == scalar.random()


def test_range_one_draws_consume_nothing():
    rng = np.random.default_rng(3)
    assert _bounded_draws(rng, [1] * 50).tolist() == [0] * 50
    assert rng.random() == np.random.default_rng(3).random()


# ----------------------------------------------------------------------
# Merging streams and building requests
# ----------------------------------------------------------------------
def test_merge_order_breaks_ties_by_stream_index():
    from repro.serve.traffic import _merge_ranks

    streams = [np.array([0.5, 1.0, 1.0, 2.0]), np.array([1.0, 1.0, 3.0]),
               np.array([0.1, 1.0, 2.0, 2.0, 9.0])]
    order = sorted((arrival, index, k)
                   for index, column in enumerate(streams)
                   for k, arrival in enumerate(column.tolist()))
    expected = {(index, k): rank for rank, (_, index, k) in enumerate(order)}
    ranks = _merge_ranks(streams)
    assert {(index, k): int(rank)
            for index, column in enumerate(ranks)
            for k, rank in enumerate(column)} == expected


@pytest.fixture
def constructions(monkeypatch):
    """Counts ``RenderRequest`` constructions."""
    counter = {"n": 0}
    post_init = RenderRequest.__post_init__

    def counted(self):
        counter["n"] += 1
        post_init(self)

    monkeypatch.setattr(RenderRequest, "__post_init__", counted)
    return counter


def test_one_construction_per_request(constructions):
    trace = generate_traffic(pattern="bursty", n_requests=300)
    assert constructions["n"] == len(trace) == 300

    constructions["n"] = 0
    trace = generate_tenant_traffic(TENANTS, n_requests=300,
                                    overrides=TENANT_OVERRIDES)
    assert constructions["n"] == len(trace) == 300
    assert [r.request_id for r in trace] == list(range(300))

    constructions["n"] = 0
    streams = generate_federation_traffic(_cli_regions(),
                                          n_requests_per_region=100)
    n = sum(len(stream) for stream in streams.values())
    assert constructions["n"] == n == 300
    assert sorted(r.request_id for s in streams.values() for r in s) == \
        list(range(300))


# ----------------------------------------------------------------------
# Inputs that are not finite or not positive
# ----------------------------------------------------------------------
BAD_INPUTS = [
    ("rate_rps", {"rate_rps": math.nan}),
    ("rate_rps", {"rate_rps": math.inf}),
    ("rate_rps", {"rate_rps": 0.0}),
    ("rate_rps", {"rate_rps": -5.0}),
    ("slo_s", {"slo_s": math.nan}),
    ("slo_s", {"slo_s": math.inf}),
    ("slo_s", {"slo_s": 0.0}),
    ("seed", {"seed": -1}),
    ("seed", {"seed": 1.5}),
]


@pytest.mark.parametrize("field, kwargs", BAD_INPUTS)
def test_bad_traffic_inputs_name_the_field(field, kwargs):
    generators = [
        lambda: generate_traffic(n_requests=10, **kwargs),
        lambda: generate_tenant_traffic(TENANTS, n_requests=10, **kwargs),
        lambda: generate_federation_traffic(_cli_regions(),
                                            n_requests_per_region=10,
                                            **kwargs),
    ]
    for generate in generators:
        with pytest.raises(ConfigError, match=field):
            generate()


def test_seed_error_chains_numpy_cause():
    with pytest.raises(ConfigError, match="seed") as info:
        generate_traffic(seed=-1)
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("field, value", [
    ("arrival_s", math.nan), ("arrival_s", math.inf),
    ("slo_s", math.nan), ("slo_s", math.inf),
])
def test_request_rejects_non_finite_times(field, value):
    kwargs = dict(request_id=0, scene="lego", pipeline="mesh", width=8,
                  height=8, arrival_s=0.0, slo_s=0.05)
    kwargs[field] = value
    with pytest.raises(ConfigError, match="finite"):
        RenderRequest(**kwargs)


@pytest.mark.parametrize("argv", [
    ["serve", "--rate", "nan"],
    ["serve", "--rate", "inf"],
    ["serve", "--slo-ms", "nan"],
    ["serve", "--seed", "-1"],
    ["federate", "--rate", "nan"],
    ["federate", "--seed", "-1"],
    ["sweep", "--set", "rate=nan"],
    ["sweep", "--vary", "rate=abc"],
    ["sweep", "--set", "seed=-1", "--set", "requests=5"],
])
def test_cli_reports_bad_traffic_inputs(argv, capsys):
    from repro.cli import main

    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
