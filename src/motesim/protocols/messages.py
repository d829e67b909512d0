"""Wire message types and codecs for the four application protocols.

Each codec is byte-exact: decode(encode(m)) == m, and encoded sizes follow the
layout rules below so cross-protocol size comparisons are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# MQTT: fixed header of type/flags plus a 1-4 byte remaining length

MQTT_CONNECT = "CONNECT"
MQTT_CONNACK = "CONNACK"
MQTT_PUBLISH = "PUBLISH"
MQTT_PUBACK = "PUBACK"
MQTT_SUBSCRIBE = "SUBSCRIBE"
MQTT_SUBACK = "SUBACK"
MQTT_PINGREQ = "PINGREQ"
MQTT_PINGRESP = "PINGRESP"

_MQTT_TYPE_CODES = {
    MQTT_CONNECT: 1,
    MQTT_CONNACK: 2,
    MQTT_PUBLISH: 3,
    MQTT_PUBACK: 4,
    MQTT_SUBSCRIBE: 8,
    MQTT_SUBACK: 9,
    MQTT_PINGREQ: 12,
    MQTT_PINGRESP: 13,
}
_MQTT_CODE_TYPES = {v: k for k, v in _MQTT_TYPE_CODES.items()}


@dataclass(frozen=True)
class MqttMsg:
    type: str
    topic: str = ""
    qos: int = 0
    msg_id: int = 0
    payload: bytes = b""
    dup: bool = False
    client_id: str = ""
    keepalive_s: int = 0
    rc: int = 0


def _u16(value: int) -> bytes:
    if not 0 <= value <= 0xFFFF:
        raise ValueError(f"value {value} does not fit in 16 bits")
    return value.to_bytes(2, "big")


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
            return length, at + 1
    if len(data) > _MQTT_MAX_LENGTH_BYTES:
        raise ParseError("remaining length longer than 4 bytes")
    return None


def _mqtt_string(text: str) -> bytes:
    raw = text.encode("ascii")
    return _u16(len(raw)) + raw


def mqtt_encode(msg: MqttMsg) -> bytes:
    if msg.type not in _MQTT_TYPE_CODES:
        raise ValueError(f"unknown MQTT type: {msg.type!r}")
    flags = 0
    if msg.type == MQTT_PUBLISH:
        flags = (int(msg.dup) << 3) | (msg.qos << 1)
    elif msg.type == MQTT_SUBSCRIBE:
        flags = 0x02
    body = b""
    if msg.type == MQTT_CONNECT:
        body = _mqtt_string("MQTT") + bytes([4, 0x02]) + _u16(msg.keepalive_s)
        body += _mqtt_string(msg.client_id)
    elif msg.type == MQTT_CONNACK:
        body = bytes([0, msg.rc])
    elif msg.type == MQTT_PUBLISH:
        body = _mqtt_string(msg.topic)
        if msg.qos > 0:
            body += _u16(msg.msg_id)
        body += msg.payload
    elif msg.type == MQTT_PUBACK:
        body = _u16(msg.msg_id)
    elif msg.type == MQTT_SUBSCRIBE:
        body = _u16(msg.msg_id) + _mqtt_string(msg.topic) + bytes([msg.qos])
    elif msg.type == MQTT_SUBACK:
        body = _u16(msg.msg_id) + bytes([msg.rc])
    header = bytes([(_MQTT_TYPE_CODES[msg.type] << 4) | flags])
    return header + _mqtt_remaining_length(len(body)) + body


def _take_mqtt_string(data: bytes, at: int) -> tuple[str, int]:
    if at + 2 > len(data):
        raise ParseError("truncated string length")
    length = int.from_bytes(data[at : at + 2], "big")
    end = at + 2 + length
    if end > len(data):
        raise ParseError("truncated string body")
    return data[at + 2 : end].decode("ascii"), end


def mqtt_decode(data: bytes) -> MqttMsg:
    if len(data) < 2:
        raise ParseError("MQTT frame shorter than fixed header")
    type_code = data[0] >> 4
    flags = data[0] & 0x0F
    if type_code not in _MQTT_CODE_TYPES:
        raise ParseError(f"unknown MQTT type code {type_code}")
    mtype = _MQTT_CODE_TYPES[type_code]
    length = _take_mqtt_length(data)
    if length is None:
        raise ParseError("truncated remaining length")
    remaining, header = length
    if remaining != len(data) - header:
        raise ParseError("remaining-length mismatch")
    body = data[header:]
    if mtype == MQTT_CONNECT:
        name, at = _take_mqtt_string(body, 0)
        if name != "MQTT" or at + 4 > len(body):
            raise ParseError("malformed CONNECT header")
        keepalive = int.from_bytes(body[at + 2 : at + 4], "big")
        client_id, end = _take_mqtt_string(body, at + 4)
        if end != len(body):
            raise ParseError("trailing bytes after CONNECT")
        return MqttMsg(MQTT_CONNECT, client_id=client_id, keepalive_s=keepalive)
    if mtype == MQTT_CONNACK:
        if len(body) != 2:
            raise ParseError("CONNACK body must be 2 bytes")
        return MqttMsg(MQTT_CONNACK, rc=body[1])
    if mtype == MQTT_PUBLISH:
        qos = (flags >> 1) & 0x03
        dup = bool(flags & 0x08)
        topic, at = _take_mqtt_string(body, 0)
        msg_id = 0
        if qos > 0:
            if at + 2 > len(body):
                raise ParseError("truncated PUBLISH msg_id")
            msg_id = int.from_bytes(body[at : at + 2], "big")
            at += 2
        return MqttMsg(MQTT_PUBLISH, topic=topic, qos=qos, msg_id=msg_id,
                       payload=body[at:], dup=dup)
    if mtype == MQTT_PUBACK:
        if len(body) != 2:
            raise ParseError("PUBACK body must be 2 bytes")
        return MqttMsg(MQTT_PUBACK, msg_id=int.from_bytes(body, "big"))
    if mtype == MQTT_SUBSCRIBE:
        if len(body) < 2:
            raise ParseError("truncated SUBSCRIBE")
        msg_id = int.from_bytes(body[:2], "big")
        topic, at = _take_mqtt_string(body, 2)
        if at + 1 != len(body):
            raise ParseError("malformed SUBSCRIBE tail")
        return MqttMsg(MQTT_SUBSCRIBE, topic=topic, qos=body[at], msg_id=msg_id)
    if mtype == MQTT_SUBACK:
        if len(body) != 3:
            raise ParseError("SUBACK body must be 3 bytes")
        return MqttMsg(MQTT_SUBACK, msg_id=int.from_bytes(body[:2], "big"), rc=body[2])
    if body:
        raise ParseError(f"{mtype} carries no body")
    return MqttMsg(mtype)


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

_SN_TYPE_CODES = {
    SN_CONNECT: 0x04,
    SN_CONNACK: 0x05,
    SN_REGISTER: 0x0A,
    SN_REGACK: 0x0B,
    SN_PUBLISH: 0x0C,
    SN_PUBACK: 0x0D,
}
_SN_CODE_TYPES = {v: k for k, v in _SN_TYPE_CODES.items()}


@dataclass(frozen=True)
class MqttSnMsg:
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

    def __post_init__(self):
        if not 0 <= self.topic_id <= 0xFFFF:
            raise ValueError("topic_id must fit in 16 bits")


def _sn_flags(msg: MqttSnMsg) -> int:
    return (int(msg.dup) << 7) | ((msg.qos & 0x03) << 5)


def sn_encode(msg: MqttSnMsg) -> bytes:
    if msg.type not in _SN_TYPE_CODES:
        raise ValueError(f"unknown MQTT-SN type: {msg.type!r}")
    if msg.type == SN_CONNECT:
        body = bytes([_sn_flags(msg), 0x01]) + _u16(msg.duration_s)
        body += msg.client_id.encode("ascii")
    elif msg.type == SN_CONNACK:
        body = bytes([msg.rc])
    elif msg.type == SN_REGISTER:
        body = _u16(msg.topic_id) + _u16(msg.msg_id) + msg.topic.encode("ascii")
    elif msg.type == SN_PUBLISH:
        body = bytes([_sn_flags(msg)]) + _u16(msg.topic_id) + _u16(msg.msg_id)
        body += msg.payload
    else:  # SN_REGACK and SN_PUBACK
        body = _u16(msg.topic_id) + _u16(msg.msg_id) + bytes([msg.rc])
    total = 2 + len(body)
    if total > 255:
        raise ValueError(f"MQTT-SN message of {total} bytes exceeds 1-byte length")
    return bytes([total, _SN_TYPE_CODES[msg.type]]) + body


def sn_decode(data: bytes) -> MqttSnMsg:
    if len(data) < 2:
        raise ParseError("MQTT-SN frame shorter than its header")
    if data[0] != len(data):
        raise ParseError("length byte mismatch")
    if data[1] not in _SN_CODE_TYPES:
        raise ParseError(f"unknown MQTT-SN type code {data[1]}")
    mtype = _SN_CODE_TYPES[data[1]]
    body = data[2:]
    if mtype == SN_CONNECT:
        if len(body) < 4:
            raise ParseError("truncated CONNECT")
        flags = body[0]
        return MqttSnMsg(SN_CONNECT, qos=(flags >> 5) & 0x03, dup=bool(flags & 0x80),
                         duration_s=int.from_bytes(body[2:4], "big"),
                         client_id=body[4:].decode("ascii"))
    if mtype == SN_CONNACK:
        if len(body) != 1:
            raise ParseError("CONNACK body must be 1 byte")
        return MqttSnMsg(SN_CONNACK, rc=body[0])
    if mtype == SN_REGISTER:
        if len(body) < 4:
            raise ParseError("truncated REGISTER")
        return MqttSnMsg(SN_REGISTER, topic_id=int.from_bytes(body[:2], "big"),
                         msg_id=int.from_bytes(body[2:4], "big"),
                         topic=body[4:].decode("ascii"))
    if mtype == SN_PUBLISH:
        if len(body) < 5:
            raise ParseError("truncated PUBLISH")
        flags = body[0]
        return MqttSnMsg(SN_PUBLISH, qos=(flags >> 5) & 0x03, dup=bool(flags & 0x80),
                         topic_id=int.from_bytes(body[1:3], "big"),
                         msg_id=int.from_bytes(body[3:5], "big"), payload=body[5:])
    if len(body) != 5:  # REGACK and PUBACK
        raise ParseError(f"{mtype} body must be 5 bytes")
    return MqttSnMsg(mtype, topic_id=int.from_bytes(body[:2], "big"),
                     msg_id=int.from_bytes(body[2:4], "big"), rc=body[4])


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
# Option length (RFC 7252 section 3.1): a nibble of 0-12 is the length; 13
# adds one byte holding length - 13, 14 adds two holding length - 269.
_MAX_OPTION_LENGTH = 269 + 0xFFFF


def _coap_option_header(delta: int, length: int) -> bytes:
    if length < 13:
        return bytes([(delta << 4) | length])
    if length < 269:
        return bytes([(delta << 4) | 13, length - 13])
    return bytes([(delta << 4) | 14]) + _u16(length - 269)


@dataclass(frozen=True)
class CoapMsg:
    mtype: str
    code: str
    msg_id: int
    token: bytes = b""
    uri_path: str = ""
    payload: bytes = b""

    def __post_init__(self):
        if len(self.token) > 8:
            raise ValueError("token longer than 8 bytes")
        if len(self.uri_path) > _MAX_OPTION_LENGTH:
            raise ValueError(f"uri_path longer than {_MAX_OPTION_LENGTH} bytes")


def coap_encode(msg: CoapMsg) -> bytes:
    if msg.mtype not in _COAP_TYPE_CODES:
        raise ValueError(f"unknown CoAP message type: {msg.mtype!r}")
    if msg.code not in _COAP_METHOD_CODES:
        raise ValueError(f"unknown CoAP code: {msg.code!r}")
    out = bytearray()
    out.append((1 << 6) | (_COAP_TYPE_CODES[msg.mtype] << 4) | len(msg.token))
    out.append(_COAP_METHOD_CODES[msg.code])
    out += _u16(msg.msg_id)
    out += msg.token
    if msg.uri_path:
        path = msg.uri_path.encode("ascii")
        out += _coap_option_header(_URI_PATH_OPTION, len(path))
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
        if length == 15:
            raise ParseError("reserved option length nibble 15")
        if length >= 13:
            size = length - 12  # extended length bytes
            if at + size > len(data):
                raise ParseError("truncated option length")
            length = int.from_bytes(data[at : at + size], "big") + (13 if size == 1 else 269)
            at += size
        end = at + length
        if end > len(data):
            raise ParseError("truncated Uri-Path option")
        uri_path = data[at:end].decode("ascii")
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


@dataclass(frozen=True)
class HttpRequest:
    method: str
    path: str
    host: str
    body: bytes = b""


@dataclass(frozen=True)
class HttpResponse:
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


def _http_split(data: bytes) -> tuple[list[str], bytes]:
    head, sep, body = data.partition(b"\r\n\r\n")
    if not sep:
        raise ParseError("missing blank line")
    return head.decode("ascii").split("\r\n"), body


def _http_headers(lines: list[str]) -> dict[str, str]:
    headers = {}
    for line in lines:
        name, sep, value = line.partition(": ")
        if not sep:
            raise ParseError(f"malformed header line: {line!r}")
        headers[name.lower()] = value
    return headers


def http_decode_request(data: bytes) -> HttpRequest:
    lines, body = _http_split(data)
    parts = lines[0].split(" ")
    if len(parts) != 3 or parts[2] != "HTTP/1.1":
        raise ParseError(f"malformed request line: {lines[0]!r}")
    headers = _http_headers(lines[1:])
    if "host" not in headers:
        raise ParseError("missing Host header")
    expected = int(headers.get("content-length", "0"))
    if expected != len(body):
        raise ParseError("Content-Length mismatch")
    return HttpRequest(parts[0], parts[1], headers["host"], body)


def http_decode_response(data: bytes) -> HttpResponse:
    lines, body = _http_split(data)
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or parts[0] != "HTTP/1.1" or not parts[1].isdigit():
        raise ParseError(f"malformed status line: {lines[0]!r}")
    headers = _http_headers(lines[1:])
    expected = int(headers.get("content-length", "0"))
    if expected != len(body):
        raise ParseError("Content-Length mismatch")
    return HttpResponse(int(parts[1]), body)


def http_decode_prefix(buffer: bytes, kind: str) -> Optional[tuple[object, int]]:
    """Decode one request or response from a stream buffer head, or None."""
    head, sep, _ = bytes(buffer).partition(b"\r\n\r\n")
    if not sep:
        return None
    headers = _http_headers(head.decode("ascii").split("\r\n")[1:])
    total = len(head) + 4 + int(headers.get("content-length", "0"))
    if len(buffer) < total:
        return None
    data = bytes(buffer[:total])
    msg = http_decode_request(data) if kind == "request" else http_decode_response(data)
    return msg, total


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
