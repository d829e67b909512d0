"""Application-layer protocol state machines and wire codecs."""

from .actions import (
    AppPublish,
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
    CoapClientConfig,
    CoapClientState,
    CoapServerState,
    coap_exchange,
    coap_server_handle,
)
from .http import (
    HttpClientConfig,
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
    MqttClientConfig,
    MqttClientState,
    broker_handle,
    mqtt_client_step,
)
from .mqttsn import (
    GatewayState,
    SnClientConfig,
    SnClientState,
    TopicRegistry,
    TranslationError,
    gateway_handle,
    gateway_translate,
    mqttsn_client_step,
)

__all__ = [
    "AppPublish", "CloseStream", "MsgIn", "Notify", "OpenStream",
    "SendMsg", "Started", "StartTimer", "StopTimer", "StreamDown", "StreamUp",
    "TimerFired",
    "CoapClientConfig", "CoapClientState", "CoapServerState", "coap_exchange",
    "coap_server_handle",
    "HttpClientConfig", "HttpClientState", "HttpServerState", "http_server_handle",
    "http_step",
    "CoapMsg", "HttpRequest", "HttpResponse", "MqttMsg", "MqttSnMsg", "ParseError",
    "ProtocolMessage", "decode", "encode",
    "BrokerState", "MqttClientConfig", "MqttClientState", "broker_handle",
    "mqtt_client_step",
    "GatewayState", "SnClientConfig", "SnClientState", "TopicRegistry",
    "TranslationError", "gateway_handle", "gateway_translate", "mqttsn_client_step",
]
