"""Application-layer protocol state machines and wire codecs."""

from .actions import (
    SERVER,
    ClientConfig,
    CloseStream,
    MsgIn,
    Notify,
    OpenStream,
    SendMsg,
    Started,
    StartTimer,
    StopTimer,
    StreamDown,
    StreamUp,
    TimerFired,
)
from .coap import (
    CoapClientState,
    CoapServerState,
    coap_exchange,
    coap_server_handle,
)
from .http import (
    HttpClientState,
    HttpServerState,
    http_server_handle,
    http_step,
)
from .messages import (
    CoapMsg,
    HttpRequest,
    HttpResponse,
    MqttMsg,
    MqttSnMsg,
    ParseError,
    ProtocolMessage,
    decode,
    encode,
)
from .mqtt import (
    BrokerState,
    MqttClientState,
    broker_handle,
    mqtt_client_step,
)
from .mqttsn import (
    GatewayState,
    SnClientState,
    TopicRegistry,
    TranslationError,
    gateway_handle,
    gateway_translate,
    mqttsn_client_step,
)

__all__ = [
    "SERVER", "ClientConfig", "CloseStream", "MsgIn", "Notify", "OpenStream",
    "SendMsg", "Started", "StartTimer", "StopTimer", "StreamDown", "StreamUp",
    "TimerFired",
    "CoapClientState", "CoapServerState", "coap_exchange",
    "coap_server_handle",
    "HttpClientState", "HttpServerState", "http_server_handle",
    "http_step",
    "CoapMsg", "HttpRequest", "HttpResponse", "MqttMsg", "MqttSnMsg", "ParseError",
    "ProtocolMessage", "decode", "encode",
    "BrokerState", "MqttClientState", "broker_handle",
    "mqtt_client_step",
    "GatewayState", "SnClientState", "TopicRegistry",
    "TranslationError", "gateway_handle", "gateway_translate", "mqttsn_client_step",
]
