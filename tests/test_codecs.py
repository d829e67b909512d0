"""Wire codecs: byte-exact sizes, round-trips, and malformed-input handling."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motesim.protocols import messages as wire

from msggen import (
    random_coap,
    random_http_request,
    random_http_response,
    random_mqtt,
    random_mqttsn,
)


# ---------------------------------------------------------------------------
# Known encoded sizes

def test_mqtt_publish_size_example():
    # 2 fixed header + (2 + topic) + payload, no msg id at qos 0
    msg = wire.MqttMsg(wire.MQTT_PUBLISH, topic="t", qos=0, payload=b"abc")
    assert len(wire.encode(msg)) == 8


def test_mqtt_qos1_publish_adds_msg_id():
    msg = wire.MqttMsg(wire.MQTT_PUBLISH, topic="t", qos=1, msg_id=7, payload=b"abc")
    assert len(wire.encode(msg)) == 10


def test_mqtt_connect_size():
    msg = wire.MqttMsg(wire.MQTT_CONNECT, client_id="c", keepalive_s=60)
    # 2 + (2+4 protocol name + 1 level + 1 flags + 2 keepalive) + (2+1 id)
    assert len(wire.encode(msg)) == 15


def test_mqtt_acks_are_four_bytes():
    assert len(wire.encode(wire.MqttMsg(wire.MQTT_PUBACK, msg_id=9))) == 4
    assert len(wire.encode(wire.MqttMsg(wire.MQTT_CONNACK, rc=0))) == 4


@pytest.mark.parametrize("body,length_bytes",
                         [(127, 1), (128, 2), (16383, 2), (16384, 3)])
def test_mqtt_remaining_length_is_a_varint(body, length_bytes):
    # PUBLISH at qos 0 with topic "t": body = 2 + 1 topic byte + payload
    msg = wire.MqttMsg(wire.MQTT_PUBLISH, topic="t", qos=0, payload=bytes(body - 3))
    data = wire.encode(msg)
    assert len(data) == 1 + length_bytes + body
    assert all(byte & 0x80 for byte in data[1:length_bytes])
    assert not data[length_bytes] & 0x80
    assert wire.decode(data, "mqtt") == msg
    assert wire.mqtt_decode_prefix(data + b"\x40") == (msg, len(data))


def test_mqtt_remaining_length_bytes_example():
    # 321 = 0b10_1000001: low 7 bits first with the continuation bit set
    msg = wire.MqttMsg(wire.MQTT_PUBLISH, topic="t", qos=0, payload=bytes(318))
    assert wire.encode(msg)[1:3] == bytes([0xC1, 0x02])


def test_mqttsn_publish_size_example():
    # 1 length + 1 type + 1 flags + 2 topic id + 2 msg id + payload
    msg = wire.MqttSnMsg(wire.SN_PUBLISH, topic_id=1, msg_id=1, qos=1, payload=b"abc")
    assert len(wire.encode(msg)) == 10


def test_mqttsn_length_byte_is_total_length():
    msg = wire.MqttSnMsg(wire.SN_PUBLISH, topic_id=1, msg_id=1, qos=1, payload=b"abc")
    data = wire.encode(msg)
    assert data[0] == len(data)


def test_coap_get_size_example():
    # 4 header + 0 token + (1 option byte + 1 path byte), no payload marker
    msg = wire.CoapMsg(wire.COAP_CON, "GET", 1, token=b"", uri_path="s")
    assert len(wire.encode(msg)) == 6


@pytest.mark.parametrize("path_len,option_header",
                         [(12, 1), (13, 2), (255, 2)])
def test_coap_uri_path_uses_extended_option_length(path_len, option_header):
    msg = wire.CoapMsg(wire.COAP_CON, "GET", 1, token=b"", uri_path="p" * path_len)
    data = wire.encode(msg)
    assert len(data) == 4 + option_header + path_len
    assert wire.decode(data, "coap") == msg


def test_coap_extended_option_length_bytes_example():
    msg = wire.CoapMsg(wire.COAP_CON, "GET", 1, token=b"", uri_path="temperature-x")
    assert wire.encode(msg)[4:6] == bytes([(11 << 4) | 13, 0])


@pytest.mark.parametrize("msg", [
    pytest.param(wire.MqttSnMsg(wire.SN_PUBLISH, topic_id=0x10000), id="sn-topic-id-17-bits"),
    pytest.param(wire.CoapMsg(wire.COAP_CON, "GET", 1, token=bytes(9)), id="coap-token-9"),
    pytest.param(wire.CoapMsg(wire.COAP_CON, "GET", 1, uri_path="p" * 256),
                 id="coap-uri-path-256"),
])
def test_encoders_reject_fields_their_format_cannot_carry(msg):
    # the records check nothing when built; the encoder is where a field enters the wire
    with pytest.raises(ValueError):
        wire.encode(msg)


def test_coap_response_size():
    msg = wire.CoapMsg(wire.COAP_ACK, "2.05", 1, token=bytes(8), payload=bytes(30))
    # 4 header + 8 token + 1 payload marker + 30 payload
    assert len(wire.encode(msg)) == 43


def test_http_request_size_example():
    req = wire.HttpRequest("GET", "/s", "h")
    data = wire.encode(req)
    assert data == b"GET /s HTTP/1.1\r\nHost: h\r\n\r\n"
    assert len(data) == 28


def test_http_response_carries_content_length():
    resp = wire.HttpResponse(200, b"abc")
    data = wire.encode(resp)
    assert data.startswith(b"HTTP/1.1 200 OK\r\n")
    assert b"Content-Length: 3\r\n" in data
    assert data.endswith(b"\r\n\r\nabc")


# ---------------------------------------------------------------------------
# Round-trips

def _round_trip_many(generate, protocol, count=10_000, seed=0xC0DEC):
    rng = random.Random(seed)
    for _ in range(count):
        msg = generate(rng)
        assert wire.decode(wire.encode(msg), protocol) == msg


def test_mqtt_round_trip_random():
    _round_trip_many(random_mqtt, "mqtt")


def test_mqttsn_round_trip_random():
    _round_trip_many(random_mqttsn, "mqtt-sn")


def test_coap_round_trip_random():
    _round_trip_many(random_coap, "coap")


def test_http_round_trip_random():
    rng = random.Random(0xBEEF)
    for _ in range(5_000):
        req = random_http_request(rng)
        assert wire.decode(wire.encode(req), "http-request") == req
        resp = random_http_response(rng)
        assert wire.decode(wire.encode(resp), "http-response") == resp


# ---------------------------------------------------------------------------
# Relative wire cost

def test_wire_size_ordering_for_same_payload():
    for size in range(1, 65):
        payload = bytes(size)
        sn = len(wire.encode(wire.MqttSnMsg(
            wire.SN_PUBLISH, topic_id=1, msg_id=1, qos=1, payload=payload)))
        coap = len(wire.encode(wire.CoapMsg(
            wire.COAP_ACK, "2.05", 1, token=bytes(8), payload=payload)))
        mqtt = len(wire.encode(wire.MqttMsg(
            wire.MQTT_PUBLISH, topic="temperature", qos=1, msg_id=1, payload=payload)))
        http = len(wire.encode(wire.HttpResponse(200, payload)))
        assert sn < coap < mqtt < http


# ---------------------------------------------------------------------------
# Malformed input

def test_mqtt_decode_rejects_garbage():
    with pytest.raises(wire.ParseError):
        wire.decode(b"", "mqtt")
    with pytest.raises(wire.ParseError):
        wire.decode(b"\xf0\x00", "mqtt")  # unknown type code
    with pytest.raises(wire.ParseError):
        wire.decode(b"\x30\x05\x00\x01t", "mqtt")  # length larger than body


def test_mqtt_decode_rejects_truncations():
    data = wire.encode(wire.MqttMsg(wire.MQTT_PUBLISH, topic="t", qos=1,
                                    msg_id=3, payload=b"xyz"))
    for cut in range(1, len(data)):
        with pytest.raises(wire.ParseError):
            wire.decode(data[:cut], "mqtt")


def test_mqttsn_decode_rejects_bad_length():
    good = wire.encode(wire.MqttSnMsg(wire.SN_PUBACK, topic_id=1, msg_id=1, rc=0))
    with pytest.raises(wire.ParseError):
        wire.decode(good[:-1], "mqtt-sn")
    with pytest.raises(wire.ParseError):
        wire.decode(bytes([len(good) + 1]) + good[1:], "mqtt-sn")
    with pytest.raises(wire.ParseError):
        wire.decode(b"\x03\x99\x00", "mqtt-sn")  # unknown type code


def test_coap_decode_rejects_bad_version_and_truncation():
    good = wire.encode(wire.CoapMsg(wire.COAP_CON, "GET", 5, token=b"ab",
                                    uri_path="s"))
    with pytest.raises(wire.ParseError):
        wire.decode(bytes([good[0] ^ 0x80]) + good[1:], "coap")
    for cut in range(1, 4):
        with pytest.raises(wire.ParseError):
            wire.decode(good[:cut], "coap")


def test_coap_decode_rejects_bad_extended_option_length():
    header = bytes([0x40, 1, 0, 1])  # CON GET, no token
    with pytest.raises(wire.ParseError):
        wire.decode(header + bytes([(11 << 4) | 15]) + b"p", "coap")  # reserved nibble
    with pytest.raises(wire.ParseError):
        wire.decode(header + bytes([(11 << 4) | 13]), "coap")  # length byte missing
    with pytest.raises(wire.ParseError):
        wire.decode(header + bytes([(11 << 4) | 14, 0]), "coap")  # no two-byte form
    with pytest.raises(wire.ParseError):
        wire.decode(header + bytes([(11 << 4) | 13, 5]) + b"p" * 17, "coap")  # 18 > 17


def test_http_decode_rejects_garbage():
    with pytest.raises(wire.ParseError):
        wire.decode(b"nonsense\r\n\r\n", "http-request")
    with pytest.raises(wire.ParseError):
        wire.decode(b"GET / HTTP/0.9\r\nHost: h\r\n\r\n", "http-request")
    with pytest.raises(wire.ParseError):
        wire.decode(b"GET / HTTP/1.1\r\n\r\n", "http-request")  # no Host
    with pytest.raises(wire.ParseError):
        wire.decode(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab", "http-response")


COAP_GET = bytes([0x40, 1, 0, 1])  # CON GET, message id 1, no token


@pytest.mark.parametrize("kind,data", [
    pytest.param("mqtt", b"\x10\x0d\x00\x04MQTT\x03\x02\x00\x3c\x00\x01c",
                 id="mqtt-connect-level-3"),
    pytest.param("mqtt", b"\x20\x02\x01\x00", id="mqtt-connack-session-present"),
    pytest.param("mqtt", b"\x80\x06\x00\x01\x00\x01t\x00", id="mqtt-unknown-type-code-8"),
    pytest.param("mqtt", b"\x31\x04\x00\x01tx", id="mqtt-publish-retain"),
    pytest.param("mqtt", b"\xc0\x80\x00", id="mqtt-two-byte-length-0"),
    pytest.param("mqtt-sn", b"\x06\x04\x00\x05\x00\x1e", id="mqtt-sn-protocol-id-5"),
    pytest.param("mqtt-sn", b"\x08\x0c\x10\x00\x01\x00\x01x", id="mqtt-sn-flag-bit-0x10"),
    pytest.param("coap", COAP_GET + bytes([(11 << 4) | 14, 0, 0]) + b"p" * 269,
                 id="coap-two-byte-option-length"),
    pytest.param("coap", COAP_GET + bytes([(11 << 4) | 13, 243]) + b"p" * 256,
                 id="coap-uri-path-256"),
    pytest.param("coap", COAP_GET + bytes([11 << 4]), id="coap-empty-uri-path"),
    pytest.param("http-response", b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
                 id="http-content-length-x"),
    pytest.param("http-response", b"HTTP/1.1 200 OK\r\nContent-Length: -0\r\n\r\n",
                 id="http-content-length-minus-0"),
    pytest.param("http-request", b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: +1\r\n\r\nx",
                 id="http-content-length-plus-1"),
    pytest.param("http-request", b"GET /\xe9 HTTP/1.1\r\nHost: h\r\n\r\n",
                 id="http-non-ascii-head"),
])
def test_decoders_reject_what_the_encoders_never_write(kind, data):
    with pytest.raises(wire.ParseError):
        wire.decode(data, kind)


GENERATORS = {"mqtt": random_mqtt, "mqtt-sn": random_mqttsn, "coap": random_coap,
              "http-request": random_http_request, "http-response": random_http_response}


@st.composite
def damaged_frames(draw):
    """A valid frame with one bit flipped, cut short or extended; or noise."""
    kind = draw(st.sampled_from(sorted(GENERATORS)))
    data = wire.encode(GENERATORS[kind](random.Random(draw(st.integers(0, 2**32)))))
    how = draw(st.sampled_from(("flip", "truncate", "extend", "noise")))
    if how == "flip":
        bit = draw(st.integers(0, 8 * len(data) - 1))
        data = bytearray(data)
        data[bit // 8] ^= 1 << (bit % 8)
    elif how == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif how == "extend":
        data += draw(st.binary(min_size=1, max_size=4))
    else:
        data = draw(st.binary(max_size=16))
    return kind, bytes(data)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(damaged_frames())
def test_decoders_raise_parse_error_or_invert_the_encoder(frame):
    kind, data = frame
    try:
        msg = wire.decode(data, kind)
    except wire.ParseError:
        return
    if not kind.startswith("http"):
        assert wire.encode(msg) == data


def test_unknown_protocol_name_rejected():
    with pytest.raises(ValueError):
        wire.decode(b"\x00", "smtp")


# ---------------------------------------------------------------------------
# Stream prefix decoding

def test_mqtt_prefix_decoder_handles_partials_and_concatenation():
    first = wire.encode(wire.MqttMsg(wire.MQTT_PUBLISH, topic="t", qos=1,
                                     msg_id=1, payload=b"abc"))
    second = wire.encode(wire.MqttMsg(wire.MQTT_PUBACK, msg_id=1))
    buffer = first + second
    for cut in range(len(first)):
        assert wire.mqtt_decode_prefix(buffer[:cut]) is None
    msg, used = wire.mqtt_decode_prefix(buffer)
    assert used == len(first)
    assert msg.type == wire.MQTT_PUBLISH
    msg2, used2 = wire.mqtt_decode_prefix(buffer[used:])
    assert used2 == len(second)
    assert msg2.type == wire.MQTT_PUBACK


def test_mqtt_prefix_decoder_waits_inside_a_multibyte_length():
    data = wire.encode(wire.MqttMsg(wire.MQTT_PUBLISH, topic="t", qos=0,
                                    payload=bytes(20000)))
    assert data[1] & 0x80 and data[2] & 0x80  # three length bytes
    for cut in (1, 2, 3, 4, len(data) - 1):
        assert wire.mqtt_decode_prefix(data[:cut]) is None
    with pytest.raises(wire.ParseError):
        wire.mqtt_decode_prefix(b"\x30\xff\xff\xff\xff\x01")  # five length bytes


def test_http_prefix_decoder_waits_for_full_body():
    resp = wire.encode(wire.HttpResponse(200, b"abcde"))
    for cut in range(len(resp)):
        assert wire.http_decode_prefix(resp[:cut], "response") is None
    msg, used = wire.http_decode_prefix(resp + b"HTTP/1.1", "response")
    assert used == len(resp)
    assert msg.body == b"abcde"
