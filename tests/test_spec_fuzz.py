"""Randomized spec-string parsing: every CLI spec parser either returns a
valid spec or raises :class:`ConfigError` — never a raw ``ValueError`` /
``OverflowError``, and never a spec carrying NaN or an infinity.

Number fields are drawn from a pool that mixes ordinary values with
``nan``, ``inf``, ``1e400`` (which ``float`` reads as infinity), huge
finite values and non-numbers, so every field sees each kind.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.serve.cluster import parse_fleet_spec
from repro.serve.faults import FaultPlan
from repro.serve.federation import FederationPlan, parse_region_spec
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
])
def test_non_finite_field_is_named_and_chained(parse, spec, field):
    with pytest.raises(ConfigError, match=field.replace("+", r"\+")) as info:
        parse(spec)
    assert isinstance(info.value.__cause__, ValueError)
