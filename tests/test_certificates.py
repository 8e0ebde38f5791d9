import json
from fractions import Fraction as F

import pytest

from topocert import certificates
from topocert import (
    CapExceeded,
    DomainSide,
    FullLine,
    NotExhaustible,
    Segment,
    SpaceSide,
    WitnessSide,
    fingerprint_of,
    hclasses_of_spec,
    nonhomeo_certificate,
    validate_topology,
    verify_certificate,
)
from topocert.jsonio import dumps, load_input

from conftest import FIXTURES


def circle_side():
    loaded = load_input(str(FIXTURES / "circle_cover.json"))
    return WitnessSide(name="circle", covers=loaded.specs)


def plane_side():
    loaded = load_input(str(FIXTURES / "plane_cover.json"))
    return WitnessSide(name="plane", covers=loaded.specs)


def line_witness_side():
    loaded = load_input(str(FIXTURES / "line_witness_covers.json"))
    return WitnessSide(name="line", covers=loaded.specs)


def three_point_side():
    loaded = load_input(str(FIXTURES / "three_point_model.json"))
    return SpaceSide(name="model", space=loaded.space)


SEGMENT = DomainSide(name="segment", domain=Segment(F(0), F(1)))
LINE = DomainSide(name="line", domain=FullLine())


class TestSegmentVsCircle:
    def test_certificate_found_and_replays(self):
        cert = nonhomeo_certificate(SEGMENT, circle_side(), (4, 4), "graph")
        assert cert is not None
        assert cert.witness_side == "circle"
        assert cert.witness_fingerprint["graph"]["vertices"] == 8
        assert verify_certificate(cert, SEGMENT, circle_side())

    def test_replay_refuses_an_unknown_witness_side(self):
        cert = nonhomeo_certificate(SEGMENT, circle_side(), (4, 4), "graph")
        assert not verify_certificate(cert._replace(witness_side="nobody"),
                                      SEGMENT, circle_side())

    def test_replay_refuses_a_side_that_is_not_exhaustive(self):
        # a side under the exhaustive side's name that enumerates nothing
        cert = nonhomeo_certificate(SEGMENT, circle_side(), (4, 4), "graph")
        stand_in = WitnessSide(name="segment", covers=circle_side().covers)
        assert not verify_certificate(cert, stand_in, circle_side())

    def test_replay_refuses_a_dropped_listing_fingerprint(self):
        cert = nonhomeo_certificate(SEGMENT, circle_side(), (4, 4), "graph")
        listing = cert.listings["segment"]
        short = dict(listing, fingerprints=listing["fingerprints"][1:])
        assert not verify_certificate(
            cert._replace(listings={**cert.listings, "segment": short}),
            SEGMENT, circle_side())

    def test_replay_refuses_a_missing_witness_cover(self):
        cert = nonhomeo_certificate(SEGMENT, circle_side(), (4, 4), "graph")
        assert not verify_certificate(cert._replace(witness_cover=None),
                                      SEGMENT, circle_side())

    def test_replay_refuses_a_wrong_fingerprint_count(self):
        cert = nonhomeo_certificate(SEGMENT, circle_side(), (4, 4), "graph")
        side = cert.exhaustive_side
        wrong = dict(side, fingerprint_count=side["fingerprint_count"] + 1)
        assert not verify_certificate(cert._replace(exhaustive_side=wrong),
                                      SEGMENT, circle_side())

    def test_replay_reads_the_certificate_back_from_json(self):
        cert = nonhomeo_certificate(SEGMENT, circle_side(), (4, 4), "graph")
        read = certificates.Certificate(**json.loads(dumps(cert.to_json())))
        assert verify_certificate(read, SEGMENT, circle_side())

    def test_replay_ignores_the_version(self):
        cert = nonhomeo_certificate(SEGMENT, circle_side(), (4, 4), "graph")
        assert verify_certificate(cert._replace(version="0.0.0"),
                                  SEGMENT, circle_side())

    # a size, level or caps the search does not take, each spelled as the
    # certificate could carry it after a JSON round trip
    @pytest.mark.parametrize("field, value", [
        ("caps", {"cap": 5}),
        ("n", "4"),
        ("n", 0),
        ("level", "nope"),
        ("caps", {"cap_cover": 0, "cap_vertices": 40}),
        ("n", True),
    ], ids=["caps key", "n string", "n zero", "level", "cap zero", "n bool"])
    def test_replay_refuses_a_malformed_field(self, field, value):
        cert = nonhomeo_certificate(SEGMENT, circle_side(), (4, 4), "graph")
        assert not verify_certificate(cert._replace(**{field: value}),
                                      SEGMENT, circle_side())

    @pytest.mark.parametrize("caps", [{"cap_cover": 3, "cap_vertices": 40},
                                      {"cap_cover": 5, "cap_vertices": 1}])
    def test_replay_refuses_caps_its_search_exceeds(self, caps):
        cert = nonhomeo_certificate(SEGMENT, circle_side(), (4, 4), "graph")
        with pytest.raises(CapExceeded):
            nonhomeo_certificate(SEGMENT, circle_side(), (4, 4), "graph", **caps)
        assert not verify_certificate(cert._replace(caps=caps), SEGMENT, circle_side())

    def test_exhaustive_side_recorded(self):
        cert = nonhomeo_certificate(SEGMENT, circle_side(), (4, 4), "graph")
        assert cert.exhaustive_side["name"] == "segment"
        assert cert.exhaustive_side["fingerprint_count"] > 0


class TestLineVsPlane:
    def test_certificate_found(self):
        cert = nonhomeo_certificate(LINE, plane_side(), (4, 4), "graph")
        assert cert is not None
        assert cert.witness_side == "plane"
        assert cert.witness_fingerprint["graph"]["vertices"] == 12
        assert verify_certificate(cert, LINE, plane_side())


class TestLineVsThreePointModel:
    def test_certificate_at_graph_and_cstar_levels(self):
        loaded = load_input(str(FIXTURES / "three_point_model.json"))
        model = SpaceSide(name="model", space=loaded.space)
        for level in ("graph", "cstar"):
            cert = nonhomeo_certificate(line_witness_side(), model, (7, 7), level)
            assert cert is not None, level
            assert cert.witness_side == "line"
            assert verify_certificate(cert, line_witness_side(), model)

    def test_ktheory_level_blind_to_the_zigzag_witness(self):
        # the zigzag witness has three free generators, same as the model,
        # so k-theory alone cannot separate them; the chain witness can
        loaded = load_input(str(FIXTURES / "three_point_model.json"))
        model = SpaceSide(name="model", space=loaded.space)
        zigzag_only = WitnessSide(
            name="line", covers=line_witness_side().covers[:1])
        assert nonhomeo_certificate(zigzag_only, model, (7, 7), "ktheory") is None
        cert = nonhomeo_certificate(line_witness_side(), model, (7, 7), "ktheory")
        assert cert is not None  # the chain witness has a single generator


class TestSearchBehavior:
    def test_same_space_yields_none(self):
        s = validate_topology(["a"], [[], ["a"]])
        a = SpaceSide(name="a", space=s)
        b = SpaceSide(name="b", space=s)
        assert nonhomeo_certificate(a, b, (1, 1), "graph") is None

    def test_two_witness_sides_rejected(self):
        with pytest.raises(NotExhaustible):
            nonhomeo_certificate(circle_side(), plane_side(), (4, 4), "graph")

    def test_witness_of_wrong_size_contributes_nothing(self):
        s = validate_topology(["a"], [[], ["a"]])
        a = SpaceSide(name="a", space=s)
        assert nonhomeo_certificate(a, circle_side(), (2, 2), "graph") is None

    def test_bad_range(self):
        s = validate_topology(["a"], [[], ["a"]])
        a = SpaceSide(name="a", space=s)
        with pytest.raises(ValueError):
            nonhomeo_certificate(a, a, (0, 1), "graph")

    def test_search_stops_past_the_largest_cover(self, monkeypatch):
        chain = SpaceSide(name="chain", space=load_input(
            str(FIXTURES / "chain_3.json")).space)
        assert chain.largest_cover == 3
        assert line_witness_side().largest_cover == 7
        assert LINE.largest_cover is None
        sizes = []
        real = certificates.fingerprints_of_space

        def counted(space, n, *args):
            sizes.append(n)
            return real(space, n, *args)

        monkeypatch.setattr(certificates, "fingerprints_of_space", counted)
        assert nonhomeo_certificate(chain, chain, (1, 1000), "graph") is None
        assert sizes == [1, 1, 2, 2, 3, 3]
        sizes.clear()
        # the witness side's 7-member covers keep the sizes past the chain's
        # largest cover in the search
        assert nonhomeo_certificate(line_witness_side(), chain, (2, 10 ** 11),
                                    "graph").n == 7
        assert nonhomeo_certificate(line_witness_side(), three_point_side(),
                                    (8, 10 ** 11), "graph") is None
        assert sizes == [2, 3, 4, 5, 6, 7]
        # a domain side realizes every size: its cap ends the search
        with pytest.raises(CapExceeded):
            nonhomeo_certificate(LINE, three_point_side(), (6, 10 ** 11), "graph")

    def test_space_vs_space_both_directions(self):
        # trivial vs chain-2: the distinguishing fingerprint lives on the
        # chain side and the search must find it there
        triv = SpaceSide(
            name="trivial",
            space=validate_topology(["p"], [[], ["p"]]))
        chain = SpaceSide(
            name="chain",
            space=validate_topology(["1", "2"], [[], ["1"], ["1", "2"]]))
        cert = nonhomeo_certificate(triv, chain, (1, 3), "graph")
        assert cert is not None
        assert cert.witness_side == "chain"
        assert cert.n == 2
        assert verify_certificate(cert, triv, chain)
        # the replay takes the witness side first, whatever the order given
        assert verify_certificate(cert, chain, triv)

    def test_certificate_json_is_self_contained(self):
        cert = nonhomeo_certificate(SEGMENT, circle_side(), (4, 4), "graph")
        doc = cert.to_json()
        assert doc["witness_cover"]["domain"]["kind"] == "circle"
        assert doc["caps"] == {"cap_cover": 5, "cap_vertices": 40}
        assert doc["version"]
        assert set(doc["listings"]) == {"segment", "circle"}


class TestSides:
    def test_exhaustive_flags(self):
        s = validate_topology(["a"], [[], ["a"]])
        assert SpaceSide(name="s", space=s).exhaustive
        assert SEGMENT.exhaustive and LINE.exhaustive
        assert not circle_side().exhaustive

    def test_domain_side_needs_a_size(self):
        with pytest.raises(ValueError):
            SEGMENT.fingerprints(None, "graph", 5, 40)

    def test_witness_side_all_sizes(self):
        fs, family = line_witness_side().fingerprints(None, "graph", 5, 40)
        assert fs.n is None and family == "2 witness cover(s)"

    def test_cover_for_absent_key(self):
        assert circle_side().cover_for({"no": "detail"}, 4, 40) is None


@pytest.mark.parametrize("witness, exhaustive, n, level", [
    (circle_side(), SEGMENT, 4, "graph"),
    (plane_side(), LINE, 4, "graph"),
    (line_witness_side(), three_point_side(), 7, "graph"),
    (line_witness_side(), three_point_side(), 7, "cstar"),
    (line_witness_side(), three_point_side(), 7, "ktheory"),
], ids=["circle", "plane", "line-graph", "line-cstar", "line-ktheory"])
def test_witness_cover_reproduces_witness_fingerprint(
        tmp_path, witness, exhaustive, n, level):
    # the certificate finds its witness cover by fingerprinting the witness
    # covers again; that cover must give back the reported fingerprint
    cert = nonhomeo_certificate(witness, exhaustive, (n, n), level)
    assert cert is not None and cert.witness_side == witness.name
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(cert.witness_cover))
    loaded = load_input(str(path))
    (spec,) = loaded.specs
    assert fingerprint_of(hclasses_of_spec(spec)).to_json() == cert.witness_fingerprint
