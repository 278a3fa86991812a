"""DNS substrate tests: names, rdata, messages, cache, zone, resolver."""

import pytest
from hypothesis import given, strategies as st

from repro.dns import (
    AData,
    AAAAData,
    CNAMEData,
    DNSCache,
    DNSClass,
    Flags,
    HTTPSData,
    Message,
    NSData,
    NameError_,
    OPTData,
    PTRData,
    Question,
    RawData,
    Rcode,
    RecordType,
    RecursiveResolver,
    ResourceRecord,
    SOAData,
    SRVData,
    StubResolver,
    TXTData,
    Zone,
    ZoneRecord,
    decode_name,
    encode_name,
    make_query,
    split_name,
)
from repro.dns.resolver import extract_addresses


class TestNames:
    def test_simple_round_trip(self):
        wire = encode_name("example.org")
        name, offset = decode_name(wire, 0)
        assert name == "example.org"
        assert offset == len(wire)

    def test_root_name(self):
        assert encode_name("") == b"\x00"
        assert encode_name(".") == b"\x00"
        assert decode_name(b"\x00", 0) == ("", 1)

    def test_trailing_dot_equivalent(self):
        assert encode_name("a.b.") == encode_name("a.b")

    def test_label_too_long(self):
        with pytest.raises(NameError_):
            split_name("a" * 64 + ".org")

    def test_name_too_long(self):
        with pytest.raises(NameError_):
            split_name(".".join(["abcdefgh"] * 32))

    def test_empty_label_rejected(self):
        with pytest.raises(NameError_):
            split_name("a..b")

    def test_compression_pointer(self):
        table = {}
        first = encode_name("www.example.org", table, 0)
        second = encode_name("mail.example.org", table, len(first))
        # second should end with a 2-byte pointer to "example.org".
        assert len(second) < len(encode_name("mail.example.org"))
        data = first + second
        name, _ = decode_name(data, len(first))
        assert name == "mail.example.org"

    def test_pointer_to_full_name(self):
        table = {}
        first = encode_name("example.org", table, 0)
        second = encode_name("example.org", table, len(first))
        assert second == bytes([0xC0, 0x00])

    def test_forward_pointer_rejected(self):
        data = bytes([0xC0, 0x04, 0x00, 0x00, 0x00])
        with pytest.raises(NameError_):
            decode_name(data, 0)

    def test_pointer_loop_rejected(self):
        # name at 2 points to 0 which points to 2.
        data = bytes([0xC0, 0x02, 0xC0, 0x00])
        with pytest.raises(NameError_):
            decode_name(data, 2)

    def test_truncated_label_rejected(self):
        with pytest.raises(NameError_):
            decode_name(b"\x05ab", 0)

    def test_names_round_trip_byte_for_byte_or_reject(self):
        # A non-ASCII label byte could not re-encode; a dot inside a
        # label would re-encode as two labels.
        with pytest.raises(NameError_):
            decode_name(b"\x01\xff\x03org\x00", 0)
        with pytest.raises(NameError_):
            decode_name(b"\x03a.b\x03org\x00", 0)

    @given(
        st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=20),
            min_size=1,
            max_size=5,
        )
    )
    def test_round_trip_property(self, labels):
        name = ".".join(labels)
        if len(name) > 255:
            return
        decoded, _ = decode_name(encode_name(name), 0)
        assert decoded == name


class TestRdata:
    def test_a_round_trip(self):
        data = AData("192.0.2.1").encode()
        assert len(data) == 4
        assert AData.decode(data, 0, 4).address == "192.0.2.1"

    def test_aaaa_round_trip(self):
        data = AAAAData("2001:db8::1").encode()
        assert len(data) == 16
        assert AAAAData.decode(data, 0, 16).address == "2001:db8::1"

    def test_a_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            AData.decode(bytes(3), 0, 3)

    @pytest.mark.parametrize("cls", [NSData, CNAMEData, PTRData])
    def test_name_rdata_round_trip(self, cls):
        data = cls("ns1.example.org").encode()
        assert cls.decode(data, 0, len(data)).target == "ns1.example.org"

    def test_soa_round_trip(self):
        soa = SOAData("ns1.example.org", "admin.example.org", 1, 2, 3, 4, 5)
        data = soa.encode()
        decoded = SOAData.decode(data, 0, len(data))
        assert decoded == soa

    def test_txt_round_trip(self):
        txt = TXTData((b"hello", b"world"))
        data = txt.encode()
        assert TXTData.decode(data, 0, len(data)) == txt

    def test_txt_string_too_long(self):
        with pytest.raises(ValueError):
            TXTData((b"x" * 256,))

    def test_srv_round_trip(self):
        srv = SRVData(10, 20, 8080, "service.example.org")
        data = srv.encode()
        assert SRVData.decode(data, 0, len(data)) == srv

    def test_https_round_trip(self):
        https = HTTPSData(1, "svc.example.org", ((1, b"\x02h2"),))
        data = https.encode()
        assert HTTPSData.decode(data, 0, len(data)) == https

    def test_opt_round_trip(self):
        opt = OPTData(((10, b"cookie"),))
        data = opt.encode()
        assert OPTData.decode(data, 0, len(data)) == opt

    def test_raw_fallback(self):
        raw = RawData(b"\x01\x02\x03")
        assert RawData.decode(raw.encode(), 0, 3) == raw


class TestMessage:
    def _response(self, ttls=(300, 60)):
        return Message(
            id=0x1234,
            flags=Flags(qr=True, ra=True),
            questions=(Question("example.org", RecordType.AAAA),),
            answers=tuple(
                ResourceRecord(
                    "example.org", RecordType.AAAA, DNSClass.IN, ttl,
                    AAAAData(f"2001:db8::{i + 1}"),
                )
                for i, ttl in enumerate(ttls)
            ),
        )

    def test_query_round_trip(self):
        query = make_query("example.org", RecordType.A, txid=99)
        decoded = Message.decode(query.encode())
        assert decoded.id == 99
        assert decoded.questions[0].name == "example.org"
        assert decoded.questions[0].rtype == RecordType.A
        assert not decoded.flags.qr
        assert decoded.flags.rd

    def test_response_round_trip(self):
        response = self._response()
        decoded = Message.decode(response.encode())
        assert decoded.flags.qr
        assert len(decoded.answers) == 2
        assert extract_addresses(decoded) == ["2001:db8::1", "2001:db8::2"]

    def test_compression_shrinks_message(self):
        response = self._response()
        assert len(response.encode(compress=True)) < len(
            response.encode(compress=False)
        )

    def test_with_id(self):
        assert self._response().with_id(0).id == 0

    def test_with_ttls_zero(self):
        zeroed = self._response().with_ttls(0)
        assert all(r.ttl == 0 for r in zeroed.answers)

    def test_adjust_ttls_floors_at_zero(self):
        adjusted = self._response(ttls=(10, 600)).adjust_ttls(-100)
        assert [r.ttl for r in adjusted.answers] == [0, 500]

    def test_min_ttl(self):
        assert self._response(ttls=(300, 60)).min_ttl() == 60
        assert make_query("a.org").min_ttl() is None

    def test_opt_ttl_not_rewritten(self):
        message = Message(
            answers=(
                ResourceRecord("", RecordType.OPT, 4096, 0x8000, OPTData()),
            )
        )
        assert message.with_ttls(0).answers[0].ttl == 0x8000

    def test_flags_bits_round_trip(self):
        flags = Flags(qr=True, aa=True, tc=True, rd=False, ra=True, ad=True,
                      cd=True, rcode=Rcode.NXDOMAIN)
        assert Flags.decode(flags.encode()) == flags

    def test_truncated_message_rejected(self):
        with pytest.raises(ValueError):
            Message.decode(bytes(11))

    def test_question_cache_key_case_insensitive(self):
        a = Question("Example.ORG", RecordType.A).cache_key()
        b = Question("example.org", RecordType.A).cache_key()
        assert a == b

    def test_authority_and_additional_sections(self):
        message = Message(
            flags=Flags(qr=True),
            questions=(Question("example.org"),),
            authorities=(
                ResourceRecord("org", RecordType.NS, DNSClass.IN, 300,
                               NSData("ns.org")),
            ),
            additionals=(
                ResourceRecord("ns.org", RecordType.A, DNSClass.IN, 300,
                               AData("192.0.2.53")),
            ),
        )
        decoded = Message.decode(message.encode())
        assert decoded.authorities[0].rdata.target == "ns.org"
        assert decoded.additionals[0].rdata.address == "192.0.2.53"


class TestDnsCache:
    def _response(self, ttl=60):
        return Message(
            flags=Flags(qr=True),
            questions=(Question("example.org", RecordType.AAAA),),
            answers=(
                ResourceRecord("example.org", RecordType.AAAA, DNSClass.IN,
                               ttl, AAAAData("2001:db8::1")),
            ),
        )

    def test_store_and_fresh_lookup(self):
        cache = DNSCache(4)
        q = Question("example.org", RecordType.AAAA)
        cache.store(q, self._response(60), now=0.0)
        hit = cache.lookup(q, now=10.0)
        assert hit is not None
        assert hit.answers[0].ttl == 50  # aged

    def test_expiry(self):
        cache = DNSCache(4)
        q = Question("example.org", RecordType.AAAA)
        cache.store(q, self._response(5), now=0.0)
        assert cache.lookup(q, now=6.0) is None

    def test_zero_ttl_not_cached(self):
        cache = DNSCache(4)
        q = Question("example.org", RecordType.AAAA)
        cache.store(q, self._response(0), now=0.0)
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = DNSCache(2)
        for i in range(3):
            q = Question(f"n{i}.org", RecordType.AAAA)
            r = Message(
                flags=Flags(qr=True), questions=(q,),
                answers=(ResourceRecord(f"n{i}.org", RecordType.AAAA,
                                        DNSClass.IN, 60, AAAAData("2001:db8::1")),),
            )
            cache.store(q, r, now=0.0)
        assert len(cache) == 2
        assert cache.lookup(Question("n0.org", RecordType.AAAA), now=1.0) is None
        assert cache.lookup(Question("n2.org", RecordType.AAAA), now=1.0) is not None

    def test_hit_miss_counters(self):
        cache = DNSCache(4)
        q = Question("example.org", RecordType.AAAA)
        cache.lookup(q, 0.0)
        cache.store(q, self._response(60), now=0.0)
        cache.lookup(q, 1.0)
        assert cache.misses == 1 and cache.hits == 1

    def test_expire_sweep(self):
        cache = DNSCache(4)
        q = Question("example.org", RecordType.AAAA)
        cache.store(q, self._response(5), now=0.0)
        assert cache.expire(now=10.0) == 1
        assert len(cache) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DNSCache(0)


class TestZoneAndResolver:
    def _zone(self):
        zone = Zone()
        zone.add_address("a.example.org", "2001:db8::1", ttl=300)
        zone.add_address("a.example.org", "192.0.2.1", ttl=300)
        zone.add_address("b.example.org", "2001:db8::2", ttl=60)
        return zone

    def test_lookup_by_type(self):
        zone = self._zone()
        assert len(zone.lookup("a.example.org", RecordType.AAAA)) == 1
        assert len(zone.lookup("a.example.org", RecordType.A)) == 1

    def test_any_lookup(self):
        assert len(self._zone().lookup("a.example.org", RecordType.ANY)) == 2

    def test_case_insensitive(self):
        assert self._zone().lookup("A.Example.ORG", RecordType.AAAA)

    def test_set_ttl(self):
        zone = self._zone()
        assert zone.set_ttl("a.example.org", RecordType.AAAA, 10) == 1
        assert zone.lookup("a.example.org", RecordType.AAAA)[0].ttl == 10

    def test_names_listing(self):
        assert self._zone().names() == ["a.example.org", "b.example.org"]

    def test_resolve_success(self):
        resolver = RecursiveResolver(self._zone())
        response = resolver.resolve(make_query("a.example.org", txid=7), now=0.0)
        assert response.id == 7
        assert response.flags.qr
        assert extract_addresses(response) == ["2001:db8::1"]

    def test_resolve_nxdomain(self):
        resolver = RecursiveResolver(self._zone())
        response = resolver.resolve(make_query("missing.org"), now=0.0)
        assert response.flags.rcode == Rcode.NXDOMAIN

    def test_resolver_cache_ages_ttls(self):
        resolver = RecursiveResolver(self._zone())
        resolver.resolve(make_query("b.example.org"), now=0.0)
        aged = resolver.resolve(make_query("b.example.org"), now=10.0)
        assert aged.answers[0].ttl == 50
        assert resolver.stats.cache_hits == 1

    def test_multiple_questions_formerr(self):
        query = Message(
            questions=(Question("a.org"), Question("b.org")),
        )
        resolver = RecursiveResolver(self._zone())
        assert resolver.resolve(query, 0.0).flags.rcode == Rcode.FORMERR

    def test_empty_question_formerr(self):
        resolver = RecursiveResolver(self._zone())
        assert resolver.resolve(Message(), 0.0).flags.rcode == Rcode.FORMERR

    def test_stub_validates_mismatched_question(self):
        stub = StubResolver()
        response = Message(
            flags=Flags(qr=True),
            questions=(Question("other.org", RecordType.AAAA),),
        )
        with pytest.raises(ValueError):
            stub.handle_response(Question("a.org", RecordType.AAAA), response, 0.0)

    def test_stub_requires_qr_flag(self):
        stub = StubResolver()
        with pytest.raises(ValueError):
            stub.handle_response(
                Question("a.org"), make_query("a.org"), 0.0
            )

    def test_stub_populates_cache(self):
        cache = DNSCache(4)
        stub = StubResolver(cache)
        resolver = RecursiveResolver(self._zone())
        q = Question("a.example.org", RecordType.AAAA)
        response = resolver.resolve(make_query("a.example.org"), 0.0)
        result = stub.handle_response(q, response, 0.0)
        assert result.addresses == ["2001:db8::1"]
        assert stub.cached_response(q, 1.0) is not None
