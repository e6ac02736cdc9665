"""Pretty-printer: canonical output and parse→print→parse roundtrips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.spec import parse
from repro.spec.printer import print_spec
from tests.spec.test_paper_specs import (
    FIGURE_3,
    FIGURE_4,
    FIGURE_5_LRU,
    FIGURE_5_MRU,
    FIGURE_6,
    MEMCACHED_REPLICATED,
)

PAPER_SPECS = [
    FIGURE_3, FIGURE_4, FIGURE_5_LRU, FIGURE_5_MRU, FIGURE_6,
    MEMCACHED_REPLICATED,
]


class TestRoundtrip:
    @pytest.mark.parametrize("source", PAPER_SPECS)
    def test_paper_specs_roundtrip(self, source):
        """parse(print(parse(s))) == parse(s) for every paper figure."""
        first = parse(source)
        printed = print_spec(first)
        second = parse(printed)
        assert second == first

    @pytest.mark.parametrize("source", PAPER_SPECS)
    def test_printing_is_idempotent(self, source):
        once = print_spec(parse(source))
        assert print_spec(parse(once)) == once


class TestFormatting:
    def test_tier_line(self):
        spec = parse(
            "Tiera T() { tier1: { name: Memcached, size: 5G, zone: useast1b }; }"
        )
        out = print_spec(spec)
        assert "tier1: { name: Memcached, size: 5G, zone: useast1b };" in out

    def test_background_prefix_kept(self):
        spec = parse(
            "Tiera T() { tier1: { name: S3 };"
            " background event(tier1.filled == 50%) : response {"
            " retrieve(what: insert.object); } }"
        )
        assert "background event(tier1.filled == 50%)" in print_spec(spec)

    def test_string_escaping(self):
        spec = parse(
            'Tiera T() { tier1: { name: S3 };'
            ' event(insert.into) : response {'
            ' encrypt(what: insert.object, key: "a\\"b"); } }'
        )
        roundtripped = parse(print_spec(spec))
        call = roundtripped.events[0].body[0]
        assert call.args["key"].value == 'a"b'

    def test_quoted_zone_roundtrips(self):
        """Regression: a zone that is not an identifier printed bare
        (``zone: us-east-1b``), which the lexer then rejected."""
        spec = parse(
            'Tiera T() { tier1: { name: Memcached, size: 1G, zone: "us-east-1b" }; }'
        )
        out = print_spec(spec)
        assert 'zone: "us-east-1b"' in out
        assert parse(out) == spec

    def test_every_new_form_roundtrips(self):
        spec = parse(
            "Tiera T(size mem = 1G, bandwidth cap = none, bool colo = false) {"
            " tier1: { name: Memcached, size: mem, colocated: colo, evict_to: tier2 };"
            " tier2: { name: EBS, size: 2G, evict_to: drop };"
            ' event "both"(insert.into) : response {'
            " store(what: insert.object, to: [tier1, tier2]); }"
            ' background event "promote"(get.of && insert.object.location != tier1)'
            " : response { retrieve(what: insert.object, promote_to: tier1,"
            " exclusive: true); }"
            ' event "sync"(tier1.dirty_bytes >= 50M) : response {'
            " copy(what: insert.object, to: tier2, clear_dirty: false,"
            " bandwidth: cap); grow(what: tier1, increment: 50%, delay: 30); } }"
        )
        printed = print_spec(spec)
        assert 'background event "promote"(get.of && ' in printed
        assert "size mem = 1G, bandwidth cap = none" in printed
        assert "evict_to: drop" in printed and "to: [tier1, tier2]" in printed
        assert parse(printed) == spec

    def test_bandwidth_literal(self):
        spec = parse(
            "Tiera T() { tier1: { name: EBS, size: 1G };"
            " event(time=5) : response {"
            " copy(what: object.location == tier1, to: tier1,"
            " bandwidth: 40KB/s); } }"
        )
        assert "bandwidth: 40KB/s" in print_spec(spec)


# -- property: generated specs roundtrip ------------------------------------

_name = st.from_regex(r"[a-z][a-z0-9]{0,6}", fullmatch=True)
_tier_name = st.sampled_from(["tier1", "tier2", "tier3"])
_product = st.sampled_from(["Memcached", "EBS", "S3"])


@st.composite
def generated_spec(draw):
    tiers = ["tier1", "tier2"]
    tier_lines = [
        f"{t}: {{ name: {draw(_product)}, size: "
        f"{draw(st.sampled_from(['64K', '1M', '2G']))} }};"
        for t in tiers
    ]
    body = []
    n_rules = draw(st.integers(min_value=1, max_value=3))
    for _ in range(n_rules):
        kind = draw(st.sampled_from(["action", "timer", "threshold"]))
        target = draw(_tier_name.filter(lambda t: t in tiers))
        response = draw(st.sampled_from([
            f"store(what: insert.object, to: {target});",
            f"copy(what: object.location == tier1, to: {target});",
            f"move(what: tier1.oldest, to: {target});",
            "insert.object.dirty = true;",
            f"if (tier1.filled) {{ move(what: tier1.oldest, to: {target}); }}",
        ]))
        if kind == "action":
            head = "event(insert.into)"
        elif kind == "timer":
            head = f"event(time={draw(st.integers(min_value=1, max_value=900))})"
        else:
            pct = draw(st.integers(min_value=1, max_value=99))
            head = f"event(tier1.filled == {pct}%)"
        body.append(f"{head} : response {{ {response} }}")
    name = draw(_name).capitalize()
    return f"Tiera {name}() {{ {' '.join(tier_lines)} {' '.join(body)} }}"


class TestRoundtripProperty:
    @given(source=generated_spec())
    @settings(max_examples=80, deadline=None)
    def test_generated_specs_roundtrip(self, source):
        tree = parse(source)
        assert parse(print_spec(tree)) == tree
