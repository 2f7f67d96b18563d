"""Randomized spec-string parsing: every CLI spec parser either returns a
valid spec or raises :class:`ConfigError` — never a raw ``ValueError`` /
``OverflowError``, and never a spec carrying NaN or an infinity. The
same holds for :class:`FederationConfig` built from drawn knob values.

Number fields are drawn from a pool that mixes ordinary values with
``nan``, ``inf``, ``1e400`` (which ``float`` reads as infinity), huge
finite values and non-numbers, so every field sees each kind.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.runner import SCENARIO_DEFAULTS, parse_scenario_sweep
from repro.errors import ConfigError
from repro.serve.cluster import parse_fleet_spec
from repro.serve.faults import FaultPlan
from repro.serve.federation import (FederationConfig, FederationPlan,
                                    parse_region_spec)
from repro.serve.traffic import parse_tenant_spec

FUZZ = settings(max_examples=200, deadline=None, derandomize=True,
                database=None)

_SPECIAL = ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400",
            "-1e400", "1e308", "1.7976931348623157e+308", "0", "-0.0", "1",
            "2", "4", "-1", "0.5", "1e-9", " 3 ", "", "x", "0x10", "1_0"]

#: Any number-like token.
number = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 6).map(str),
)
#: Count-like token: small integers only (a drawn count of 10**9 would
#: be a valid spec that allocates 10**9 objects), plus the specials.
count = st.one_of(st.sampled_from(_SPECIAL), st.integers(-2, 4).map(str))
name = st.sampled_from(["us", "eu", "ap", "a|b", "x@y", "", " us "])


def _clauses(clause, sep=";"):
    return st.lists(clause, min_size=0, max_size=4).map(sep.join)


def _assert_finite(*values):
    for value in values:
        if value is not None:
            assert math.isfinite(value), value


def _parse_or_config_error(parse, spec):
    try:
        return parse(spec)
    except ConfigError:
        return None


# ----------------------------------------------------------------------
# Fleet: [count*]PExSRAM, comma-joined
# ----------------------------------------------------------------------
fleet_entry = st.builds(
    lambda c, pe, sram, star: (f"{c}*" if star else "") + f"{pe}x{sram}",
    count, count, count, st.booleans())


@given(_clauses(fleet_entry, sep=","))
@FUZZ
def test_fleet_spec_fuzz(spec):
    configs = _parse_or_config_error(parse_fleet_spec, spec)
    if configs is not None:
        assert configs


# ----------------------------------------------------------------------
# Tenants: name[:tier=,weight=,slo=,share=]
# ----------------------------------------------------------------------
tenant_field = st.builds(
    lambda k, v: f"{k}={v}",
    st.sampled_from(["tier", "weight", "slo", "share", "rate"]), number)
tenant_entry = st.builds(
    lambda n, fields: n + (":" + ",".join(fields) if fields else ""),
    st.sampled_from(["premium", "economy", "batch", ""]),
    st.lists(tenant_field, max_size=3))


@given(_clauses(tenant_entry))
@FUZZ
def test_tenant_spec_fuzz(spec):
    mix = _parse_or_config_error(parse_tenant_spec, spec)
    for tenant, share in mix or ():
        _assert_finite(tenant.weight, tenant.slo_multiplier, share)
        assert 0 < share <= 1


# ----------------------------------------------------------------------
# Chip faults: literal clauses and the seeded form
# ----------------------------------------------------------------------
fault_clause = st.one_of(
    st.builds(lambda c, a, d, plus: f"crash={c}@{a}" + (f"+{d}" if plus else ""),
              count, number, number, st.booleans()),
    st.builds(lambda c, a, b, f: f"slow={c}@{a}-{b}x{f}",
              count, number, number, number),
    st.builds(lambda a, b, f: f"stall={a}-{b}x{f}", number, number, number),
    st.builds(lambda s: f"rollback={s}", number),
)
seeded_field = st.one_of(
    st.builds(lambda k, v: f"{k}={v}",
              st.sampled_from(["seed", "chips", "crashes", "stragglers",
                               "stalls"]), count),
    st.builds(lambda k, v: f"{k}={v}",
              st.sampled_from(["horizon", "rollback"]), number),
)
fault_spec = st.one_of(
    _clauses(fault_clause),
    st.lists(seeded_field, max_size=6).map(
        lambda fields: "seeded:" + ",".join(fields)),
    # Mostly-valid chips= and horizon=, so the draw itself runs.
    st.builds(lambda seed, chips, horizon: (
        f"seeded:seed={seed},chips={chips},horizon={horizon}"),
        count, st.integers(1, 3),
        st.one_of(st.sampled_from(["0.2", "1.5"]), number)),
)


@given(fault_spec)
@FUZZ
def test_fault_plan_fuzz(spec):
    plan = _parse_or_config_error(FaultPlan.parse, spec)
    if plan is None:
        return
    _assert_finite(plan.rollback_s)
    for crash in plan.crashes:
        _assert_finite(crash.at_s, crash.down_s)
    for window in plan.stragglers:
        _assert_finite(window.start_s, window.end_s, window.factor)
    for stall in plan.compile_stalls:
        _assert_finite(stall.start_s, stall.end_s, stall.factor)


# ----------------------------------------------------------------------
# Regions: name[:tz=,chips=,cost=,cap=,policy=]
# ----------------------------------------------------------------------
region_field = st.one_of(
    st.builds(lambda k, v: f"{k}={v}",
              st.sampled_from(["tz", "cost", "zone"]), number),
    st.builds(lambda k, v: f"{k}={v}", st.sampled_from(["chips", "cap"]),
              st.one_of(count, st.sampled_from(["2.5", "1e3"]))),
    st.just("policy=round-robin"),
)
region_entry = st.builds(
    lambda n, fields: n + (":" + ",".join(fields) if fields else ""),
    name, st.lists(region_field, max_size=3))


@given(_clauses(region_entry))
@FUZZ
def test_region_spec_fuzz(spec):
    specs = _parse_or_config_error(parse_region_spec, spec)
    for region in specs or ():
        _assert_finite(region.tz_offset_h, region.cost_factor)
        assert region.n_chips >= 1 and region.cache_capacity >= 0


# ----------------------------------------------------------------------
# Federation faults: outage=R@S[+D] / partition=A|B@S[+D]
# ----------------------------------------------------------------------
federation_clause = st.builds(
    lambda kind, target, s, d, plus: (
        f"{kind}={target}@{s}" + (f"+{d}" if plus else "")),
    st.sampled_from(["outage", "partition", "quake"]),
    st.sampled_from(["us", "eu", "us|eu", "us|us", ""]),
    number, number, st.booleans())


@given(_clauses(federation_clause))
@FUZZ
def test_federation_plan_fuzz(spec):
    plan = _parse_or_config_error(FederationPlan.parse, spec)
    if plan is None:
        return
    for window in plan.outages + plan.partitions:
        _assert_finite(window.start_s, window.end_s)


# ----------------------------------------------------------------------
# FederationConfig: every float knob finite and >= 0, or a named ConfigError
# ----------------------------------------------------------------------
#: The float-valued fields, read off the dataclass defaults.
_FEDERATION_FLOATS = tuple(
    f.name for f in dataclasses.fields(FederationConfig)
    if isinstance(f.default, float))

knob = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0,
                     0.5, 1.0, 1e308, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True))


@given(st.fixed_dictionaries(
    {}, optional={name: knob for name in _FEDERATION_FLOATS}))
@FUZZ
def test_federation_config_fuzz(knobs):
    try:
        config = FederationConfig(**knobs)
    except ConfigError as err:
        # The first knob, in field order, that is non-finite or negative
        # is the one named; a non-finite one chains the ValueError.
        bad = [name for name in _FEDERATION_FLOATS
               if name in knobs
               and not (math.isfinite(knobs[name]) and knobs[name] >= 0)]
        if bad:
            assert bad[0] in str(err)
            assert (isinstance(err.__cause__, ValueError)
                    == (not math.isfinite(knobs[bad[0]])))
        else:  # every knob is fine alone: a zero cadence or a bad alpha
            assert (knobs.get("sync_cadence_s") == 0
                    or not 0 < knobs.get("service_ewma_alpha", 0.3) <= 1)
        return
    values = [getattr(config, name) for name in _FEDERATION_FLOATS]
    _assert_finite(*values)
    assert all(value >= 0 for value in values)
    assert config.sync_cadence_s > 0
    assert 0 < config.service_ewma_alpha <= 1


# ----------------------------------------------------------------------
# Sweep scenarios: repro sweep --set KEY=VALUE / --vary KEY=V1,V2
# ----------------------------------------------------------------------
sweep_key = st.sampled_from(sorted(SCENARIO_DEFAULTS) + ["bogus", "", " rate"])
sweep_value = st.one_of(number, st.sampled_from(
    ["true", "off", "Yes", "maybe", "steady", "lego,room", "a=b"]))


def _typed_value(key):
    """A value of the key's own type, so most sweeps parse."""
    default = SCENARIO_DEFAULTS[key]
    if isinstance(default, bool):
        return st.sampled_from(["true", "0", "On", "no"])
    if isinstance(default, int):
        return st.integers(0, 500).map(str)
    if isinstance(default, float):
        return st.floats(1e-3, 1e4).map(repr)
    return st.sampled_from(["steady", "lego"])


typed_key = st.sampled_from(sorted(SCENARIO_DEFAULTS))
set_entry = st.one_of(
    st.builds(lambda k, v: f"{k}={v}", sweep_key, sweep_value),
    typed_key.flatmap(lambda k: _typed_value(k).map(lambda v: f"{k}={v}")))
vary_entry = st.one_of(
    st.builds(lambda k, vs: f"{k}=" + ",".join(vs), sweep_key,
              st.lists(sweep_value, min_size=1, max_size=3)),
    typed_key.flatmap(lambda k: st.lists(_typed_value(k), min_size=1,
                                         max_size=3).map(
        lambda vs: f"{k}=" + ",".join(vs))))

def _parse_sweep(entries):
    return parse_scenario_sweep(*entries)


@given(st.tuples(st.lists(set_entry, max_size=3),
                 st.lists(vary_entry, max_size=3)))
@FUZZ
def test_sweep_assignment_fuzz(entries):
    points = _parse_or_config_error(_parse_sweep, entries)
    for point in points or ():
        for key, default in SCENARIO_DEFAULTS.items():
            assert type(point[key]) is type(default), (key, point[key])
            if isinstance(default, float):
                _assert_finite(point[key])
    if points is not None:
        assert len({point["name"] for point in points}) == len(points)


@pytest.mark.parametrize("parse, spec, field", [
    (parse_region_spec, "us-east:chips=nan", "chips=nan"),
    (parse_region_spec, "us-east:chips=inf", "chips=inf"),
    (parse_region_spec, "us-east:cost=nan", "cost=nan"),
    (parse_region_spec, "us-east:tz=inf", "tz=inf"),
    (parse_region_spec, "us-east:tz=1e400", "tz=1e400"),
    (FaultPlan.parse, "crash=1@nan+0.05", "crash=1@nan+0.05"),
    (FaultPlan.parse, "rollback=nan", "rollback=nan"),
    (FaultPlan.parse, "seeded:chips=2,horizon=inf", "horizon=inf"),
    (FaultPlan.parse, "seeded:chips=2,horizon=1e400", "horizon=1e400"),
    (FederationPlan.parse, "outage=eu-west@nan+0.5", "outage=eu-west@nan"),
    (FederationPlan.parse, "outage=eu-west@1e308+1e308", "outage=eu-west"),
    (parse_tenant_spec, "premium:weight=nan", "weight=nan"),
    (parse_tenant_spec, "premium:share=nan", "share=nan"),
    (parse_tenant_spec, "premium:tier=inf", "tier=inf"),
    (lambda spec: parse_scenario_sweep([spec]), "rate=nan", "rate=nan"),
    (lambda spec: parse_scenario_sweep([], [spec]), "slo_ms=1,inf",
     "slo_ms=inf"),
    (lambda spec: parse_scenario_sweep([spec]), "rate=abc", "rate=abc"),
    (lambda v: FederationConfig(sync_cadence_s=float(v)), "nan",
     "sync_cadence_s"),
    (lambda v: FederationConfig(gossip_delay_s=float(v)), "inf",
     "gossip_delay_s"),
    (lambda v: FederationConfig(failover_cost_s=float(v)), "nan",
     "failover_cost_s"),
])
def test_non_finite_field_is_named_and_chained(parse, spec, field):
    with pytest.raises(ConfigError, match=field.replace("+", r"\+")) as info:
        parse(spec)
    assert isinstance(info.value.__cause__, ValueError)
