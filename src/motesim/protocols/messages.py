"""Wire message types and codecs for the four application protocols.

MQTT and MQTT-SN messages are described once, in a table per protocol: each
message type maps to its type code and a body layout of (field, kind) pairs,
which _pack writes and _unpack reads (the kinds are listed above _pack). A
fixed value, such as MQTT's protocol name and level or MQTT-SN's protocol id,
is a layout entry too: encode writes it and decode requires it.

The MQTT, MQTT-SN and CoAP decoders exactly invert their encoders: decode(b)
either raises ParseError or returns a message whose encoding is b. HTTP
decodes the minimal header set its encoder writes (Host and Content-Length).
Every malformed input raises ParseError. Encoded sizes follow the layout rules
below so cross-protocol size comparisons are meaningful.

Messages are immutable NamedTuples that compare by type and fields (see
actions.typed); copy one with _replace to change it. A constructor checks
nothing: the encoders reject a field that their wire format cannot carry.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .actions import typed


class ParseError(ValueError):
    pass


def _u16(value: int) -> bytes:
    if not 0 <= value <= 0xFFFF:
        raise ValueError(f"value {value} does not fit in 16 bits")
    return value.to_bytes(2, "big")


def _ascii(raw: bytes) -> str:
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError:
        raise ParseError(f"non-ASCII text {raw!r}") from None


# ---------------------------------------------------------------------------
# Body layouts: (field, kind) pairs, packed in order. The kinds are
#   "u8", "u16"  a big-endian unsigned integer;
#   "str"        an MQTT string: 16-bit length, then ASCII;
#   "flags"      the MQTT-SN flags byte (MQTT-SN 1.2 section 5.3.4): the
#                message's dup in bit 7 and qos in bits 6-5, every other bit 0;
#   "text"       ASCII to the end of the frame;
#   "bytes"      raw bytes to the end of the frame;
#   b"..."       a fixed value, with field None.
# "text" and "bytes" take the rest of the frame, so they come last.


def _pack(layout: tuple, msg) -> bytes:
    out = bytearray()
    for field, kind in layout:
        if isinstance(kind, bytes):
            out += kind
        elif kind == "flags":
            out.append((int(msg.dup) << 7) | ((msg.qos & 0x03) << 5))
        else:
            value = getattr(msg, field)
            if kind == "u8":
                out.append(value)
            elif kind == "u16":
                out += _u16(value)
            elif kind == "bytes":
                out += value
            else:
                raw = value.encode("ascii")
                out += _u16(len(raw)) + raw if kind == "str" else raw
    return bytes(out)


def _unpack(layout: tuple, data: bytes, at: int, fields: dict) -> dict:
    """Read a body laid out as layout from data[at:] into fields; the inverse
    of _pack, so every byte must be accounted for."""
    for field, kind in layout:
        if kind == "str":
            at += 2
            end = at + int.from_bytes(data[at - 2 : at], "big")
        elif kind == "text" or kind == "bytes":
            end = len(data)
        else:
            end = at + (len(kind) if isinstance(kind, bytes) else 2 if kind == "u16" else 1)
        if end > len(data):
            raise ParseError(f"frame ends inside {field or kind!r}")
        raw = data[at:end]
        at = end
        if isinstance(kind, bytes):
            if raw != kind:
                raise ParseError(f"expected {kind!r}, got {raw!r}")
        elif kind == "flags":
            if raw[0] & 0x1F:
                raise ParseError(f"unsupported flag bits in {raw[0]:#04x}")
            fields.update(dup=bool(raw[0] & 0x80), qos=(raw[0] >> 5) & 0x03)
        elif kind == "u8" or kind == "u16":
            fields[field] = int.from_bytes(raw, "big")
        else:
            fields[field] = raw if kind == "bytes" else _ascii(raw)
    if at != len(data):
        raise ParseError(f"{len(data) - at} trailing bytes")
    return fields


# ---------------------------------------------------------------------------
# MQTT: fixed header of type/flags plus a 1-4 byte remaining length

MQTT_CONNECT = "CONNECT"
MQTT_CONNACK = "CONNACK"
MQTT_PUBLISH = "PUBLISH"
MQTT_PUBACK = "PUBACK"
MQTT_PINGREQ = "PINGREQ"
MQTT_PINGRESP = "PINGRESP"

# type: (type code, body layout). CONNECT carries protocol name "MQTT", level 4
# and connect flags 0x02 (clean session); CONNACK's first byte is session
# present = 0 (MQTT 3.1.1 sections 3.1 and 3.2). Fixed-header flags are 0 but
# PUBLISH's, from dup and qos, RETAIN clear; it has a msg_id only above QoS 0.
_MQTT_TABLE = {
    MQTT_CONNECT: (1, ((None, b"\x00\x04MQTT\x04\x02"), ("keepalive_s", "u16"),
                       ("client_id", "str"))),
    MQTT_CONNACK: (2, ((None, b"\x00"), ("rc", "u8"))),
    MQTT_PUBLISH: (3, (("topic", "str"), ("msg_id", "u16"), ("payload", "bytes"))),
    MQTT_PUBACK: (4, (("msg_id", "u16"),)),
    MQTT_PINGREQ: (12, ()),
    MQTT_PINGRESP: (13, ()),
}
_MQTT_CODE_TYPES = {code: mtype for mtype, (code, _) in _MQTT_TABLE.items()}
_MQTT_PUBLISH_QOS0 = (("topic", "str"), ("payload", "bytes"))


@typed
class MqttMsg(NamedTuple):
    type: str
    topic: str = ""
    qos: int = 0
    msg_id: int = 0
    payload: bytes = b""
    dup: bool = False
    client_id: str = ""
    keepalive_s: int = 0
    rc: int = 0


# Remaining length (MQTT 3.1.1 section 2.2.3): 7 bits per byte, least
# significant group first, high bit set on every byte but the last.
_MQTT_MAX_LENGTH_BYTES = 4


def _mqtt_remaining_length(length: int) -> bytes:
    if length >= 1 << (7 * _MQTT_MAX_LENGTH_BYTES):
        raise ValueError(f"MQTT body of {length} bytes exceeds the 4-byte length limit")
    out = bytearray()
    while True:
        length, digit = divmod(length, 128)
        if not length:
            out.append(digit)
            return bytes(out)
        out.append(digit | 0x80)


def _take_mqtt_length(data: bytes) -> Optional[tuple[int, int]]:
    """(remaining length, fixed-header size) of a frame, or None if data ends
    inside the length field."""
    length = 0
    for at in range(1, min(len(data), 1 + _MQTT_MAX_LENGTH_BYTES)):
        length |= (data[at] & 0x7F) << (7 * (at - 1))
        if not data[at] & 0x80:
            if at > 1 and not data[at]:
                raise ParseError("remaining length not in its shortest form")
            return length, at + 1
    if len(data) > _MQTT_MAX_LENGTH_BYTES:
        raise ParseError("remaining length longer than 4 bytes")
    return None


def mqtt_encode(msg: MqttMsg) -> bytes:
    if msg.type not in _MQTT_TABLE:
        raise ValueError(f"unknown MQTT type: {msg.type!r}")
    code, layout = _MQTT_TABLE[msg.type]
    flags = 0
    if msg.type == MQTT_PUBLISH:
        flags = (int(msg.dup) << 3) | (msg.qos << 1)
        layout = layout if msg.qos else _MQTT_PUBLISH_QOS0
    body = _pack(layout, msg)
    return bytes([(code << 4) | flags]) + _mqtt_remaining_length(len(body)) + body


def mqtt_decode(data: bytes) -> MqttMsg:
    if len(data) < 2:
        raise ParseError("MQTT frame shorter than fixed header")
    mtype = _MQTT_CODE_TYPES.get(data[0] >> 4)
    if mtype is None:
        raise ParseError(f"unknown MQTT type code {data[0] >> 4}")
    length = _take_mqtt_length(data)
    if length is None:
        raise ParseError("truncated remaining length")
    remaining, header = length
    if remaining != len(data) - header:
        raise ParseError("remaining-length mismatch")
    layout = _MQTT_TABLE[mtype][1]
    fields, reserved = {}, 0x0F  # the fixed-header flag bits that must be clear
    if mtype == MQTT_PUBLISH:
        fields = {"dup": bool(data[0] & 0x08), "qos": (data[0] >> 1) & 0x03}
        reserved = 0x01  # RETAIN
        layout = layout if fields["qos"] else _MQTT_PUBLISH_QOS0
    if data[0] & reserved:
        raise ParseError(f"unsupported {mtype} fixed-header flags {data[0] & 0x0F:#x}")
    return MqttMsg(mtype, **_unpack(layout, data, header, fields))


def mqtt_decode_prefix(buffer: bytes) -> Optional[tuple[MqttMsg, int]]:
    """Decode one message from the head of a stream buffer, or None if incomplete."""
    length = _take_mqtt_length(buffer)
    if length is None:
        return None
    remaining, header = length
    total = header + remaining
    if len(buffer) < total:
        return None
    return mqtt_decode(bytes(buffer[:total])), total


# ---------------------------------------------------------------------------
# MQTT-SN: 1-byte length + 1-byte type, then per-type fields

SN_CONNECT = "CONNECT"
SN_CONNACK = "CONNACK"
SN_REGISTER = "REGISTER"
SN_REGACK = "REGACK"
SN_PUBLISH = "PUBLISH"
SN_PUBACK = "PUBACK"

# type: (type code, body layout). CONNECT carries protocol id 0x01 (MQTT-SN
# 1.2 section 5.3.3).
_SN_TABLE = {
    SN_CONNECT: (0x04, ((None, "flags"), (None, b"\x01"), ("duration_s", "u16"),
                        ("client_id", "text"))),
    SN_CONNACK: (0x05, (("rc", "u8"),)),
    SN_REGISTER: (0x0A, (("topic_id", "u16"), ("msg_id", "u16"), ("topic", "text"))),
    SN_REGACK: (0x0B, (("topic_id", "u16"), ("msg_id", "u16"), ("rc", "u8"))),
    SN_PUBLISH: (0x0C, ((None, "flags"), ("topic_id", "u16"), ("msg_id", "u16"),
                        ("payload", "bytes"))),
    SN_PUBACK: (0x0D, (("topic_id", "u16"), ("msg_id", "u16"), ("rc", "u8"))),
}
_SN_CODE_TYPES = {code: mtype for mtype, (code, _) in _SN_TABLE.items()}


@typed
class MqttSnMsg(NamedTuple):
    type: str
    topic_id: int = 0
    msg_id: int = 0
    topic: str = ""
    payload: bytes = b""
    qos: int = 0
    dup: bool = False
    client_id: str = ""
    duration_s: int = 0
    rc: int = 0


def sn_encode(msg: MqttSnMsg) -> bytes:
    if msg.type not in _SN_TABLE:
        raise ValueError(f"unknown MQTT-SN type: {msg.type!r}")
    code, layout = _SN_TABLE[msg.type]
    body = _pack(layout, msg)
    total = 2 + len(body)
    if total > 255:
        raise ValueError(f"MQTT-SN message of {total} bytes exceeds 1-byte length")
    return bytes([total, code]) + body


def sn_decode(data: bytes) -> MqttSnMsg:
    if len(data) < 2:
        raise ParseError("MQTT-SN frame shorter than its header")
    if data[0] != len(data):
        raise ParseError("length byte mismatch")
    mtype = _SN_CODE_TYPES.get(data[1])
    if mtype is None:
        raise ParseError(f"unknown MQTT-SN type code {data[1]}")
    return MqttSnMsg(mtype, **_unpack(_SN_TABLE[mtype][1], data, 2, {}))


# ---------------------------------------------------------------------------
# CoAP: 4-byte base header, 0-8 byte token, one Uri-Path option, 0xFF marker

COAP_CON = "CON"
COAP_NON = "NON"
COAP_ACK = "ACK"
COAP_RST = "RST"

_COAP_TYPE_CODES = {COAP_CON: 0, COAP_NON: 1, COAP_ACK: 2, COAP_RST: 3}
_COAP_CODE_TYPES = {v: k for k, v in _COAP_TYPE_CODES.items()}

_COAP_METHOD_CODES = {
    "EMPTY": 0,
    "GET": 1,
    "POST": 2,
    "2.04": (2 << 5) | 4,
    "2.05": (2 << 5) | 5,
    "4.04": (4 << 5) | 4,
}
_COAP_CODE_METHODS = {v: k for k, v in _COAP_METHOD_CODES.items()}

_URI_PATH_OPTION = 11
# A Uri-Path option holds 1-255 bytes (RFC 7252 section 5.10). Its length
# (section 3.1) is the header's low nibble up to 12; nibble 13 adds one byte
# holding length - 13.
_MAX_URI_PATH = 255


@typed
class CoapMsg(NamedTuple):
    mtype: str
    code: str
    msg_id: int
    token: bytes = b""
    uri_path: str = ""
    payload: bytes = b""


def coap_encode(msg: CoapMsg) -> bytes:
    if msg.mtype not in _COAP_TYPE_CODES:
        raise ValueError(f"unknown CoAP message type: {msg.mtype!r}")
    if msg.code not in _COAP_METHOD_CODES:
        raise ValueError(f"unknown CoAP code: {msg.code!r}")
    if len(msg.token) > 8:
        raise ValueError(f"token of {len(msg.token)} bytes, not 0-8")
    out = bytearray()
    out.append((1 << 6) | (_COAP_TYPE_CODES[msg.mtype] << 4) | len(msg.token))
    out.append(_COAP_METHOD_CODES[msg.code])
    out += _u16(msg.msg_id)
    out += msg.token
    if msg.uri_path:
        path = msg.uri_path.encode("ascii")
        if len(path) > _MAX_URI_PATH:
            raise ValueError(f"Uri-Path of {len(path)} bytes, not 1-{_MAX_URI_PATH}")
        if len(path) < 13:
            out.append((_URI_PATH_OPTION << 4) | len(path))
        else:
            out += bytes([(_URI_PATH_OPTION << 4) | 13, len(path) - 13])
        out += path
    if msg.payload:
        out.append(0xFF)
        out += msg.payload
    return bytes(out)


def coap_decode(data: bytes) -> CoapMsg:
    if len(data) < 4:
        raise ParseError("CoAP frame shorter than base header")
    version = data[0] >> 6
    if version != 1:
        raise ParseError(f"unsupported CoAP version {version}")
    mtype = _COAP_CODE_TYPES[(data[0] >> 4) & 0x03]
    token_len = data[0] & 0x0F
    if token_len > 8:
        raise ParseError("token length above 8")
    if data[1] not in _COAP_CODE_METHODS:
        raise ParseError(f"unknown CoAP code byte {data[1]}")
    code = _COAP_CODE_METHODS[data[1]]
    msg_id = int.from_bytes(data[2:4], "big")
    at = 4 + token_len
    if at > len(data):
        raise ParseError("truncated token")
    token = data[4:at]
    uri_path = ""
    if at < len(data) and data[at] != 0xFF:
        delta = data[at] >> 4
        length = data[at] & 0x0F
        if delta != _URI_PATH_OPTION:
            raise ParseError(f"unsupported option delta {delta}")
        at += 1
        if length > 13:
            raise ParseError(f"unsupported option length nibble {length}")
        if length == 13:
            if at >= len(data):
                raise ParseError("truncated option length")
            length = data[at] + 13
            at += 1
        if not 1 <= length <= _MAX_URI_PATH:
            raise ParseError(f"Uri-Path of {length} bytes, not 1-{_MAX_URI_PATH}")
        end = at + length
        if end > len(data):
            raise ParseError("truncated Uri-Path option")
        uri_path = _ascii(data[at:end])
        at = end
    payload = b""
    if at < len(data):
        if data[at] != 0xFF:
            raise ParseError("expected payload marker")
        payload = data[at + 1 :]
        if not payload:
            raise ParseError("payload marker with empty payload")
    return CoapMsg(mtype, code, msg_id, token, uri_path, payload)


# ---------------------------------------------------------------------------
# HTTP: textual request/response with a fixed minimal header set

_HTTP_REASONS = {200: "OK", 404: "Not Found"}


@typed
class HttpRequest(NamedTuple):
    method: str
    path: str
    host: str
    body: bytes = b""


@typed
class HttpResponse(NamedTuple):
    status: int
    body: bytes = b""


def http_encode(msg: Union[HttpRequest, HttpResponse]) -> bytes:
    if isinstance(msg, HttpRequest):
        head = f"{msg.method} {msg.path} HTTP/1.1\r\nHost: {msg.host}\r\n"
        if msg.body:
            head += f"Content-Length: {len(msg.body)}\r\n"
        return head.encode("ascii") + b"\r\n" + msg.body
    if isinstance(msg, HttpResponse):
        reason = _HTTP_REASONS.get(msg.status, "OK")
        head = (
            f"HTTP/1.1 {msg.status} {reason}\r\n"
            f"Content-Length: {len(msg.body)}\r\n\r\n"
        )
        return head.encode("ascii") + msg.body
    raise ValueError(f"not an HTTP message: {msg!r}")


def _http_parse(data: bytes, kind: str) -> Optional[tuple[object, int]]:
    """The request or response at the head of data and its size in bytes, or
    None if data does not hold all of it yet."""
    head, sep, _ = data.partition(b"\r\n\r\n")
    if not sep:
        return None
    lines = _ascii(head).split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(": ")
        if not sep:
            raise ParseError(f"malformed header line: {line!r}")
        headers[name.lower()] = value
    length = headers.get("content-length", "0")
    if not length.isdigit():
        raise ParseError(f"Content-Length {length!r} is not a decimal number")
    total = len(head) + 4 + int(length)
    if len(data) < total:
        return None
    body = data[len(head) + 4 : total]
    if kind == "request":
        parts = lines[0].split(" ")
        if len(parts) != 3 or parts[2] != "HTTP/1.1":
            raise ParseError(f"malformed request line: {lines[0]!r}")
        if "host" not in headers:
            raise ParseError("missing Host header")
        return HttpRequest(parts[0], parts[1], headers["host"], body), total
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or parts[0] != "HTTP/1.1" or not parts[1].isdigit():
        raise ParseError(f"malformed status line: {lines[0]!r}")
    return HttpResponse(int(parts[1]), body), total


def http_decode_prefix(buffer: bytes, kind: str) -> Optional[tuple[object, int]]:
    """Decode one request or response from a stream buffer head, or None."""
    return _http_parse(bytes(buffer), kind)


def _http_decode_whole(data: bytes, kind: str):
    result = _http_parse(data, kind)
    if result is None:
        raise ParseError("missing blank line or body bytes")
    if result[1] != len(data):
        raise ParseError("Content-Length mismatch")
    return result[0]


def http_decode_request(data: bytes) -> HttpRequest:
    return _http_decode_whole(data, "request")


def http_decode_response(data: bytes) -> HttpResponse:
    return _http_decode_whole(data, "response")


ProtocolMessage = Union[MqttMsg, MqttSnMsg, CoapMsg, HttpRequest, HttpResponse]


def encode(msg: ProtocolMessage) -> bytes:
    """Encode any protocol message by dispatching on its type."""
    if isinstance(msg, MqttMsg):
        return mqtt_encode(msg)
    if isinstance(msg, MqttSnMsg):
        return sn_encode(msg)
    if isinstance(msg, CoapMsg):
        return coap_encode(msg)
    return http_encode(msg)


def decode(data: bytes, protocol: str) -> ProtocolMessage:
    """Decode bytes for a named protocol: mqtt, mqtt-sn, coap, http-request,
    http-response."""
    if protocol == "mqtt":
        return mqtt_decode(data)
    if protocol == "mqtt-sn":
        return sn_decode(data)
    if protocol == "coap":
        return coap_decode(data)
    if protocol == "http-request":
        return http_decode_request(data)
    if protocol == "http-response":
        return http_decode_response(data)
    raise ValueError(f"unknown protocol: {protocol!r}")


def decode_prefix(data: bytes, protocol: str) -> Optional[tuple[ProtocolMessage, int]]:
    """Decode the message at the head of a stream buffer for a named stream
    protocol (mqtt, http-request, http-response): (message, bytes it takes),
    or None while it is incomplete."""
    if protocol == "mqtt":
        return mqtt_decode_prefix(data)
    return http_decode_prefix(data, protocol.removeprefix("http-"))
