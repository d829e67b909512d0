"""Application-layer protocol state machines and wire codecs."""
