"""QoS primitives: the deterministic token bucket that rate-limits each
tenant of :mod:`repro.tenants`."""

from repro.qos.bucket import TokenBucket

__all__ = ["TokenBucket"]
