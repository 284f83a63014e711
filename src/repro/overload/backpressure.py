"""End-to-end backpressure: credit sizing plus the driver stride signal.

The :class:`BackpressureController` closes the flow-control loop the
:class:`~repro.overload.credits.LinkCredits` gate exposes.  On a short
period it

* **sizes every link's credit window from downstream headroom** — free
  consumer queue slots (capacity minus occupied minus reserved) scaled by
  the consumer's *own* output-buffer occupancy.  A congested consumer
  therefore shrinks its input window even while its queue drains, which
  is what carries pressure upstream hop-by-hop: CNA congests, the
  Bonds->CNA window shrinks, Bonds' writer buffers fill, the
  Helper->Bonds window shrinks in turn, until the simulation's own
  staging buffers feel it; and

* **turns producer-side pressure into an output stride** — when the
  LAMMPS writers' staging buffers pass the high-water fraction the
  driver's ``output_stride`` doubles (each skipped step an accounted
  shed, never a silent drop), and once the buffers have stayed calm with
  no deferred dispatches for a dwell of controller ticks the stride
  halves back toward 1.

The driver thus experiences overload as *increased output stride rather
than an unbounded block* — the failure mode the paper's offline decision
exists to pre-empt — and every stride transition lands in the shared
:class:`~repro.overload.brownout.DegradationTrace`.
"""

from __future__ import annotations

from repro.simkernel import Interrupt
from repro.perf.registry import REGISTRY
from repro.overload.credits import MIN_WINDOW, LinkCredits

# The controller's tuning: one value for every pipeline that runs it.
#: seconds between window resizes and stride decisions: a third of the
#: bundled presets' 15 s output interval, so a filling buffer is seen
#: within the step that fills it
INTERVAL = 5.0
#: simulation staging-buffer occupancy at or above which the output stride
#: doubles: a fifth of the buffer left as margin for the writes in flight
HI_WATER = 0.8
#: occupancy at or below which (with no deferred dispatch) a tick counts
#: as calm; the gap to HI_WATER is the stride's hysteresis band
LO_WATER = 0.3
#: cap on the simulation's output stride: it still emits one step in
#: eight
MAX_OUTPUT_STRIDE = 8
#: consecutive calm ticks before the stride halves (without a forecast
#: confirming the calm)
DWELL_TICKS = 2


class NoBackpressure:
    """Backpressure off: no credit windows, no output stride."""

    def credit(self, link) -> None:
        pass

    def stop(self) -> None:
        pass


class BackpressureController:
    """Periodic credit-window sizing and driver-stride adaptation."""

    def __init__(self, env, pipe, predictor):
        self.env = env
        self.pipe = pipe
        self.trace = pipe.degradation
        #: the pipeline's forecaster; a
        #: :class:`~repro.analytics.predictive.NoForecast` keeps it reactive
        self.predictor = predictor
        #: the links whose credit windows this controller sizes: every link
        #: of the built pipeline and of each stage launched later
        self._credited = set()
        for link in pipe.links.values():
            self.credit(link)
        self._calm_ticks = 0
        self._stopped = False
        self._proc = env.process(self._run(), name="backpressure")

    def credit(self, link) -> None:
        """Put ``link`` under flow control: a credit window, sized from
        the next tick on."""
        link.credits = LinkCredits(self.env, link)
        self._credited.add(link)

    def stop(self) -> None:
        self._stopped = True
        if self._proc.is_alive:
            self._proc.interrupt("stop")

    # -- the control loop ----------------------------------------------------------

    def _run(self):
        while True:
            try:
                yield self.env.timeout(INTERVAL)
            except Interrupt:
                return
            if self._stopped:
                return
            self._resize_windows()
            self._adapt_stride()

    # -- credit-window sizing ------------------------------------------------------

    def _resize_windows(self) -> None:
        telemetry = self.pipe.telemetry
        now = self.env.now
        for container in self.pipe.containers.values():
            link = container.input_link
            if link not in self._credited:
                continue
            credits = link.credits
            credits.resize(self._window_for(link, container))
            telemetry.record(
                "overload", f"credit_window.{link.name}", now, credits.window
            )
            telemetry.record(
                "overload", f"credit_pressure.{link.name}", now, credits.pressure
            )
            telemetry.record(
                "overload", f"deferred.{link.name}", now, credits.backlog
            )

    def _window_for(self, link, consumer) -> int:
        """Credit window from the consumer's admission headroom.

        Free queue slots measure how much the consumer can *accept*;
        scaling by its own output-buffer occupancy measures how much it
        can afford to — a consumer that cannot hand work downstream must
        not keep admitting it, which is the hop-by-hop propagation.
        """
        if consumer.offline or not consumer.active:
            return MIN_WINDOW
        replicas = [
            r for r in consumer.replicas
            if not r.passive and not r.retired and r.queue is not None
        ]
        if not replicas:
            return MIN_WINDOW
        free = sum(
            max(0, r.queue.capacity - r.queue.size - r.queue.reserved)
            for r in replicas
        )
        occ = max(
            (w.buffer.occupancy for r in replicas for w in r.writers.values()),
            default=0.0,
        )
        # Tighten against the forecast consumer congestion, not just the
        # observed one: credits shrink a horizon ahead of the buffer
        # actually filling.
        fc = self.predictor.forecast(f"{consumer.name}.buffer_occupancy")
        if fc is not None and fc > occ:
            occ = min(1.0, fc)
        # One credit of slack per producer keeps a drained pipeline primed.
        slack = len(link.writers)
        return max(MIN_WINDOW, int((free + slack) * (1.0 - occ)))

    # -- driver output stride ------------------------------------------------------

    def _adapt_stride(self) -> None:
        driver = self.pipe.driver
        occupancy = max(w.buffer.occupancy for w in driver.writers)
        self.pipe.telemetry.record(
            "overload", "sim_buffer_occupancy", self.env.now, occupancy
        )
        backlog = driver.writers[0].link.credits.backlog
        stride = driver.output_stride
        forecast = self.predictor.forecast("sim.buffer_occupancy")
        # Pre-emptive stride: act on the darker of observed and forecast
        # occupancy, so the stride doubles a horizon before the buffers
        # actually hit the high-water mark.  Armed only past the midpoint
        # of the hysteresis band: a healthy write/drain cycle parks below
        # it, and its sawtooth extrapolates steeply but must not trip the
        # stride.
        effective = occupancy
        armed = occupancy > 0.5 * (LO_WATER + HI_WATER)
        if forecast is not None and forecast > occupancy and armed:
            effective = min(1.0, forecast)
        if effective >= HI_WATER:
            self._calm_ticks = 0
            if stride < MAX_OUTPUT_STRIDE:
                proactive = occupancy < HI_WATER
                if proactive:
                    self.predictor.signal("buffer_occupancy", effective)
                self._set_stride(driver, stride * 2, "stride_up", occupancy,
                                 proactive=proactive)
        elif occupancy <= LO_WATER and backlog == 0:
            self._calm_ticks += 1
            # A forecast that agrees the buffers stay drained collapses
            # the calm dwell to one tick: stride unwinds sooner, shedding
            # fewer steps on the way down.  Not while the brownout ladder
            # still holds stride/offline rungs, though — steps released
            # into a decimating pipeline are shed downstream anyway, at
            # the cost of having been transported first.
            need = DWELL_TICKS
            if (forecast is not None and forecast <= LO_WATER
                    and not self._downstream_decimating()):
                need = 1
            if self._calm_ticks >= need and stride > 1:
                self._set_stride(driver, stride // 2, "stride_down", occupancy)
                self._calm_ticks = 0
        else:
            self._calm_ticks = 0

    def _downstream_decimating(self) -> bool:
        """True while the brownout undo stack holds stride/offline rungs."""
        return any(entry[0] in ("stride", "offline")
                   for entry in self.pipe.brownout._stack)

    def _set_stride(self, driver, stride: int, action: str, occupancy: float,
                    proactive: bool = False) -> None:
        driver.output_stride = stride
        level = stride.bit_length() - 1  # 1 -> 0, 2 -> 1, 4 -> 2, 8 -> 3
        detail = {"stride": stride, "occupancy": round(occupancy, 3)}
        if proactive:
            detail["proactive"] = True
        self.trace.record(self.env.now, "backpressure", action, level, **detail)
        REGISTRY.count(f"overload.{action}")
        self.pipe.telemetry.mark(
            self.env.now, f"backpressure {action}: output 1/{stride}"
        )
