"""Seeded random message generators for codec round-trip tests."""

import random
import string

from motesim.protocols import messages as wire

_TOPIC_CHARS = string.ascii_lowercase + string.digits + "/-_"


def _text(rng: random.Random, max_len: int, min_len: int = 0) -> str:
    length = rng.randint(min_len, max_len)
    return "".join(rng.choice(_TOPIC_CHARS) for _ in range(length))


def _blob(rng: random.Random, max_len: int, min_len: int = 0) -> bytes:
    return bytes(rng.randrange(256) for _ in range(rng.randint(min_len, max_len)))


def random_mqtt(rng: random.Random) -> wire.MqttMsg:
    mtype = rng.choice([
        wire.MQTT_CONNECT, wire.MQTT_CONNACK, wire.MQTT_PUBLISH,
        wire.MQTT_PUBACK, wire.MQTT_PINGREQ, wire.MQTT_PINGRESP,
    ])
    if mtype == wire.MQTT_CONNECT:
        return wire.MqttMsg(mtype, client_id=_text(rng, 20, 1),
                            keepalive_s=rng.randint(0, 0xFFFF))
    if mtype == wire.MQTT_CONNACK:
        return wire.MqttMsg(mtype, rc=rng.randint(0, 5))
    if mtype == wire.MQTT_PUBLISH:
        qos = rng.randint(0, 1)
        return wire.MqttMsg(mtype, topic=_text(rng, 20, 1), qos=qos,
                            msg_id=rng.randint(1, 0xFFFF) if qos else 0,
                            payload=_blob(rng, 64), dup=qos == 1 and rng.random() < 0.25)
    if mtype == wire.MQTT_PUBACK:
        return wire.MqttMsg(mtype, msg_id=rng.randint(1, 0xFFFF))
    return wire.MqttMsg(mtype)


def random_mqttsn(rng: random.Random) -> wire.MqttSnMsg:
    mtype = rng.choice([
        wire.SN_CONNECT, wire.SN_CONNACK, wire.SN_REGISTER,
        wire.SN_REGACK, wire.SN_PUBLISH, wire.SN_PUBACK,
    ])
    if mtype == wire.SN_CONNECT:
        return wire.MqttSnMsg(mtype, client_id=_text(rng, 20, 1),
                              duration_s=rng.randint(0, 0xFFFF))
    if mtype == wire.SN_CONNACK:
        return wire.MqttSnMsg(mtype, rc=rng.randint(0, 3))
    if mtype == wire.SN_REGISTER:
        return wire.MqttSnMsg(mtype, msg_id=rng.randint(1, 0xFFFF),
                              topic=_text(rng, 20, 1))
    if mtype == wire.SN_REGACK:
        return wire.MqttSnMsg(mtype, topic_id=rng.randint(1, 0xFFFF),
                              msg_id=rng.randint(1, 0xFFFF), rc=rng.randint(0, 3))
    if mtype == wire.SN_PUBLISH:
        qos = rng.randint(0, 1)
        return wire.MqttSnMsg(mtype, topic_id=rng.randint(1, 0xFFFF),
                              msg_id=rng.randint(1, 0xFFFF) if qos else 0,
                              qos=qos, payload=_blob(rng, 64),
                              dup=qos == 1 and rng.random() < 0.25)
    return wire.MqttSnMsg(mtype, topic_id=rng.randint(1, 0xFFFF),
                          msg_id=rng.randint(1, 0xFFFF), rc=rng.randint(0, 3))


def random_coap(rng: random.Random) -> wire.CoapMsg:
    code = rng.choice(["GET", "POST", "2.04", "2.05", "4.04"])
    if code in ("GET", "POST"):
        mtype = rng.choice([wire.COAP_CON, wire.COAP_NON])
    else:
        mtype = rng.choice([wire.COAP_ACK, wire.COAP_NON])
    token = _blob(rng, 8)
    uri = _text(rng, 12) if code in ("GET", "POST") else ""
    payload = _blob(rng, 64) if code in ("POST", "2.04", "2.05") else b""
    return wire.CoapMsg(mtype, code, rng.randint(0, 0xFFFF), token=token,
                        uri_path=uri, payload=payload)


def random_http_request(rng: random.Random) -> wire.HttpRequest:
    method = rng.choice(["GET", "POST"])
    body = _blob(rng, 64, 1) if method == "POST" else b""
    return wire.HttpRequest(method, "/" + _text(rng, 12), _text(rng, 10, 1), body)


def random_http_response(rng: random.Random) -> wire.HttpResponse:
    return wire.HttpResponse(rng.choice([200, 404]), _blob(rng, 64))
