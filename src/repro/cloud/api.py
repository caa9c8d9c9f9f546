"""The native platform's management API (an EC2-like facade).

All mutating calls are simulation processes: they consume the calibrated
control-plane latency (Table 1) before taking effect, exactly as
SpotCheck's controller experiences EC2.  Call them as::

    instance = yield api.run_instance(itype, zone, Market.SPOT, bid=0.07)

Spot instances are automatically entered into their market; when the
market price rises above their bid they receive a termination notice
(``instance.termination_notice``) and are force-terminated when the
warning period elapses.
"""

from repro.cloud.billing import BillingLedger
from repro.cloud.ebs import Volume
from repro.cloud.errors import BidTooLow, CapacityError, InvalidOperation
from repro.cloud.instances import Instance, InstanceState, Market
from repro.cloud.latency import OperationLatencyModel
from repro.cloud.spot_market import DEFAULT_WARNING_PERIOD, SpotMarketplace
from repro.cloud.vpc import Vpc


class CloudApi:
    """Facade over the simulated native IaaS platform.

    Parameters
    ----------
    env:
        Simulation environment.
    region:
        :class:`~repro.cloud.zones.Region` served by this endpoint.
    catalog:
        Instance-type catalog.
    latency_model:
        Control-plane latency sampler; defaults to one calibrated to
        Table 1 using the environment's ``cloud.latency`` RNG stream.
    warning_period:
        Spot revocation warning in seconds (120 on EC2).
    on_demand_capacity:
        Optional cap on concurrently running on-demand instances, used
        to exercise the platform-out-of-capacity path the hot-spare
        policies guard against.  ``None`` means unlimited.
    hourly_rounding:
        Whether billing rounds runtimes up to whole hours.
    faults:
        Optional :class:`~repro.faults.injector.FaultInjector`.  When
        set, every mutating call first consults the injector (which may
        raise a typed control-plane error) and has its latency run
        through the injector's tail model.  When ``None`` (the
        default) each call pays a single ``is not None`` test and is
        bit-identical to an uninjected platform.
    """

    def __init__(self, env, region, catalog, latency_model=None,
                 warning_period=DEFAULT_WARNING_PERIOD,
                 on_demand_capacity=None, hourly_rounding=False,
                 faults=None):
        self.env = env
        self.region = region
        self.catalog = catalog
        self.latency = latency_model or OperationLatencyModel(
            env.rng.stream("cloud.latency"))
        self.marketplace = SpotMarketplace(env, warning_period=warning_period)
        self.billing = BillingLedger(env, hourly_rounding=hourly_rounding)
        self.vpc = Vpc(env, region)
        self.on_demand_capacity = on_demand_capacity
        self.faults = faults
        self.instances = {}
        self._running_on_demand = 0

    def _op_latency(self, operation):
        """Sample one operation latency, fault-tail adjusted."""
        latency = float(self.latency.sample(operation))
        if self.faults is not None:
            latency = float(self.faults.adjusted_latency(operation, latency))
        return latency

    # -- market installation -------------------------------------------

    def install_market(self, itype, zone, trace):
        """Create the spot market for ``(itype, zone)`` from a trace."""
        market = self.marketplace.add_market(itype, zone, trace)
        market.set_revoke_callback(self._force_terminate)
        return market

    def spot_price(self, itype, zone):
        """Current spot price in the ``(itype, zone)`` market."""
        return self.marketplace.market(itype, zone).current_price()

    # -- instances ------------------------------------------------------

    def run_instance(self, itype, zone, market, bid=None):
        """Process: launch one instance; returns it once RUNNING."""
        return self.env.process(self._run_instance(itype, zone, market, bid))

    def _run_instance(self, itype, zone, market, bid):
        if market is Market.ON_DEMAND:
            if self.faults is not None:
                self.faults.check(
                    "start_on_demand_instance", type_name=itype.name,
                    zone_name=zone.name, market_kind="on-demand")
            if (self.on_demand_capacity is not None
                    and self._running_on_demand >= self.on_demand_capacity):
                raise CapacityError(
                    f"no on-demand capacity for {itype.name} in {zone}")
            operation = "start_on_demand_instance"
        else:
            if self.faults is not None:
                self.faults.check(
                    "start_spot_instance", type_name=itype.name,
                    zone_name=zone.name, market_kind="spot")
            spot_market = self.marketplace.market(itype, zone)
            if bid is None or bid <= 0:
                raise ValueError("spot requests require a positive bid")
            if spot_market.current_price() > bid:
                raise BidTooLow(
                    f"bid {bid} below spot price "
                    f"{spot_market.current_price()} in {spot_market.key}")
            operation = "start_spot_instance"

        instance = Instance(self.env, itype, zone, market, bid=bid)
        # The capacity slot is reserved across the start latency (two
        # concurrent launches must not both squeeze under the cap), but
        # the instance is only registered once it actually starts: any
        # failure or interruption inside the latency window releases
        # the reservation and leaves no phantom PENDING instance
        # behind.
        if market is Market.ON_DEMAND:
            self._running_on_demand += 1
        try:
            yield self.env.timeout(self._op_latency(operation))
        except BaseException:
            if market is Market.ON_DEMAND:
                self._running_on_demand -= 1
            raise

        self.instances[instance.id] = instance
        instance._mark_running()
        self.billing.open(instance)
        if market is Market.SPOT:
            spot_market = self.marketplace.market(itype, zone)
            spot_market.register(instance)
        return instance

    def run_instances(self, itype, zone, market, count, bid=None):
        """Process: launch ``count`` instances as one batched call.

        The fleet-provisioning path (EC2's ``RunInstances`` takes a
        count for exactly this reason): one fault check, one capacity
        reservation, and one control-plane latency cover the whole
        batch, so bulk-booting 10k hosts does not serialize 10k
        launch latencies.  Returns the list of RUNNING instances.
        """
        return self.env.process(
            self._run_instances(itype, zone, market, count, bid))

    def _run_instances(self, itype, zone, market, count, bid):
        if count < 1:
            raise ValueError("count must be at least 1")
        if market is Market.ON_DEMAND:
            if self.faults is not None:
                self.faults.check(
                    "start_on_demand_instance", type_name=itype.name,
                    zone_name=zone.name, market_kind="on-demand")
            if (self.on_demand_capacity is not None
                    and self._running_on_demand + count
                    > self.on_demand_capacity):
                raise CapacityError(
                    f"no on-demand capacity for {count}x {itype.name} "
                    f"in {zone}")
            operation = "start_on_demand_instance"
        else:
            if self.faults is not None:
                self.faults.check(
                    "start_spot_instance", type_name=itype.name,
                    zone_name=zone.name, market_kind="spot")
            spot_market = self.marketplace.market(itype, zone)
            if bid is None or bid <= 0:
                raise ValueError("spot requests require a positive bid")
            if spot_market.current_price() > bid:
                raise BidTooLow(
                    f"bid {bid} below spot price "
                    f"{spot_market.current_price()} in {spot_market.key}")
            operation = "start_spot_instance"

        instances = [Instance(self.env, itype, zone, market, bid=bid)
                     for _ in range(count)]
        # Reserve the whole batch across the latency, with the same
        # rollback discipline as the single-instance path.
        if market is Market.ON_DEMAND:
            self._running_on_demand += count
        try:
            yield self.env.timeout(self._op_latency(operation))
        except BaseException:
            if market is Market.ON_DEMAND:
                self._running_on_demand -= count
            raise

        spot_market = (self.marketplace.market(itype, zone)
                       if market is Market.SPOT else None)
        for instance in instances:
            self.instances[instance.id] = instance
            instance._mark_running()
            self.billing.open(instance)
            if spot_market is not None:
                spot_market.register(instance)
        return instances

    def terminate_instance(self, instance):
        """Process: gracefully relinquish an instance.

        Billing stops at the moment of the call; the instance object
        reaches TERMINATED after the platform's terminate latency.
        """
        return self.env.process(self._terminate_instance(instance))

    def _terminate_instance(self, instance):
        if instance.state is InstanceState.TERMINATED:
            if instance.revoked:
                # A graceful relinquish raced the platform's forced
                # termination and lost; EC2's terminate is idempotent
                # in this case, so the call succeeds as a no-op.
                return instance
            raise InvalidOperation(f"{instance.id} already terminated")
        if self.faults is not None:
            # Capacity episodes are launch-side faults: no type/zone
            # arguments, so a terminate never meets one.
            self.faults.check("terminate_instance")
        self._close_billing(instance)
        if instance.is_spot:
            self.marketplace.market(instance.itype, instance.zone) \
                .deregister(instance)
        yield self.env.timeout(self._op_latency("terminate_instance"))
        if instance.state is not InstanceState.TERMINATED:
            self._release_attachments(instance)
            instance._mark_terminated()
        return instance

    def _force_terminate(self, instance):
        """Platform hook: warning period elapsed on a revoked instance."""
        instance.revoked = True
        self._close_billing(instance)
        self._release_attachments(instance)
        instance._mark_terminated()

    def _release_attachments(self, instance):
        for volume in list(instance.volumes):
            volume._force_detach()
        for eni in list(instance.interfaces):
            eni._detach()

    def _close_billing(self, instance):
        record = self.billing.records.get(instance.id)
        if record is None or record.end is not None:
            return
        if instance.is_spot:
            market = self.marketplace.market(instance.itype, instance.zone)
            self.billing.close(instance, market=market)
        else:
            self.billing.close(instance)
            self._running_on_demand -= 1

    def running_instances(self):
        """All instances currently in a running state."""
        return [i for i in self.instances.values() if i.is_running]

    # -- volumes ---------------------------------------------------------

    def create_volume(self, size_gib, zone):
        """Create an EBS-like volume (control-plane, instantaneous)."""
        return Volume(self.env, size_gib, zone)

    def attach_volume(self, volume, instance):
        """Process: attach and mount a volume (Table 1: ~5.1 s mean)."""
        return self.env.process(self._attach_volume(volume, instance))

    def _attach_volume(self, volume, instance):
        if self.faults is not None:
            self.faults.check("attach_volume")
        volume._begin_attach(instance)
        yield self.env.timeout(self._op_latency("attach_volume"))
        volume._finish_attach()
        return volume

    def detach_volume(self, volume):
        """Process: unmount and detach a volume (Table 1: ~10.3 s mean).

        Detaching a volume that was already force-detached (its host
        was terminated under it mid-operation) is a no-op, matching
        EC2's idempotent detach semantics.
        """
        return self.env.process(self._detach_volume(volume))

    def _detach_volume(self, volume):
        from repro.cloud.ebs import VolumeState
        if volume.state is VolumeState.AVAILABLE:
            return volume
        if self.faults is not None:
            self.faults.check("detach_volume")
        volume._begin_detach()
        yield self.env.timeout(self._op_latency("detach_volume"))
        if volume.state is VolumeState.DETACHING:
            volume._finish_detach()
        return volume

    # -- network interfaces ----------------------------------------------

    def create_interface(self, subnet):
        """Create a detached ENI in ``subnet`` (control-plane, instant)."""
        return self.vpc.create_interface(subnet)

    def attach_interface(self, eni, instance):
        """Process: attach an ENI to an instance (Table 1: ~3.75 s mean)."""
        return self.env.process(self._attach_interface(eni, instance))

    def _attach_interface(self, eni, instance):
        if self.faults is not None:
            self.faults.check("attach_network_interface")
        yield self.env.timeout(self._op_latency("attach_network_interface"))
        eni._attach(instance)
        return eni

    def detach_interface(self, eni):
        """Process: detach an ENI (Table 1: ~3.5 s mean).

        Idempotent, like the volume detach: the interface may already
        have been released by a forced host termination.
        """
        return self.env.process(self._detach_interface(eni))

    def _detach_interface(self, eni):
        if not eni.is_attached:
            return eni
        if self.faults is not None:
            self.faults.check("detach_network_interface")
        yield self.env.timeout(self._op_latency("detach_network_interface"))
        if eni.is_attached:
            eni._detach()
        return eni
