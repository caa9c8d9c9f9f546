"""Exception types raised by the cloud substrate."""


class CloudError(Exception):
    """Base class for errors raised by the native cloud."""


class NotFound(CloudError):
    """A referenced resource (instance, volume, interface) does not exist."""


class InvalidOperation(CloudError):
    """The operation is not valid in the resource's current state."""


class CapacityError(CloudError):
    """The platform has no capacity to satisfy the request.

    The paper notes that native platforms "occasionally run out of
    on-demand servers if the demand for them exceeds their supply";
    SpotCheck's hot-spare and staging-server policies exist to absorb
    exactly this failure.
    """


class InsufficientInstanceCapacity(CapacityError):
    """EC2-style typed capacity failure during a capacity episode.

    Raised by fault injection when a per-(type, zone) capacity episode
    is active; subclasses :class:`CapacityError` so every existing
    degradation path (hot spares, staging slots, on-demand fallback)
    absorbs it unchanged.
    """


class BidTooLow(CloudError):
    """A spot request's bid is below the current market price."""


class ApiError(CloudError):
    """A control-plane call failed at the platform (``InternalError``).

    ``retryable`` distinguishes transient faults (worth a backoff and a
    retry) from terminal ones (the caller must degrade).
    """

    def __init__(self, message, operation=None, retryable=True):
        super().__init__(message)
        self.operation = operation
        self.retryable = retryable


class ThrottlingError(ApiError):
    """``RequestLimitExceeded``: the caller is sending requests too
    fast.  Always transient — the canonical exponential-backoff case.
    """

    def __init__(self, message, operation=None):
        super().__init__(message, operation=operation, retryable=True)
