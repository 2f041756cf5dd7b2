"""The instrument hook interface driven by the simulator's event loop.

An :class:`Instrument` observes one simulated execution through *typed*
events: the :meth:`~repro.machine.simulator.Simulator.run` loop calls
one hook per protocol action — state transitions (REC/SND/MAP/END
blocking, task execution, processor termination), RA/CQ operations,
data puts (issued / suspended / drained), address-package traffic
(send / block / consume) and MAP free/allocate decisions.

Design rules
------------

* **Null-object pattern.**  The base class implements every hook as a
  no-op, so an instrument overrides only the events it cares about and
  the simulator never branches on *which* hooks exist — dispatching an
  event is one attribute call.
* **Zero overhead when disabled.**  The simulator hoists a single
  ``observing`` boolean out of its hot loop (computed once per run from
  :attr:`Instrument.enabled`); with no instrument attached the per-event
  cost is one local-bool test and **no allocation** — ``trace=False`` /
  ``metrics=False`` runs stay at the uninstrumented engine's speed
  (``benchmarks/bench_cost_budgets.py`` holds this).
* **Run-local state.**  :meth:`on_run_begin` must (re)initialise all
  per-run state so one instrument instance can observe many runs.

The full taxonomy is the :data:`HOOKS` tuple; ``docs/observability.md``
describes each event and its arguments.
"""

from __future__ import annotations

#: Every hook of the instrument interface, in taxonomy order.
HOOKS = (
    "on_run_begin",
    "on_state",
    "on_exe",
    "on_overhead",
    "on_map",
    "on_alloc",
    "on_free",
    "on_put",
    "on_put_suspend",
    "on_put_drain",
    "on_sync",
    "on_package_send",
    "on_package_block",
    "on_package_read",
    "on_data_arrive",
    "on_proc_end",
    "on_run_end",
)

#: Overhead categories reported by :meth:`Instrument.on_overhead` —
#: the CPU-cost buckets of the five-state protocol.
OVERHEAD_KINDS = ("map", "package", "ra", "send")


class Instrument:
    """Typed observer of one simulated execution (null-object base).

    Every hook is a no-op here; subclass and override the events you
    need.  Times are simulator seconds; ``proc``/``dest``/``src`` are
    processor indices.  Hooks receiving lists (``on_map``) must treat
    them as read-only — they alias the simulator's plan.
    """

    #: The simulator skips all dispatch when this is False (checked once
    #: per run, not per event).
    enabled: bool = True

    # -- run framing ---------------------------------------------------
    def on_run_begin(self, t: float, nprocs: int, capacity: int,
                     memory_managed: bool) -> None:
        """A run starts; (re)initialise all per-run state."""

    def on_run_end(self, parallel_time: float) -> None:
        """The run finished; ``parallel_time`` is the makespan."""

    # -- protocol state machine ---------------------------------------
    def on_state(self, t: float, proc: int, state: str) -> None:
        """``proc`` enters protocol state ``state`` (``"REC"``,
        ``"SND"``, ``"MAP"`` or ``"END"``; EXE is conveyed by
        :meth:`on_exe`, termination by :meth:`on_proc_end`).  REC/MAP/END
        mark *blocking* waits."""

    def on_exe(self, t0: float, t1: float, proc: int, task: str) -> None:
        """Task computation interval (the EXE state)."""

    def on_overhead(self, t0: float, t1: float, proc: int, kind: str) -> None:
        """Protocol CPU work on ``proc``; ``kind`` is one of
        :data:`OVERHEAD_KINDS`."""

    def on_proc_end(self, t: float, proc: int) -> None:
        """``proc`` drained its queues and terminated (DONE)."""

    # -- MAP decisions and memory -------------------------------------
    def on_map(self, t: float, proc: int, position: int,
               frees: list, allocs: list) -> None:
        """A memory allocation point executes before ``position``."""

    def on_alloc(self, t: float, proc: int, obj: str, size: int,
                 used: int) -> None:
        """``obj`` allocated; ``used`` is the allocator's total after."""

    def on_free(self, t: float, proc: int, obj: str, size: int,
                used: int) -> None:
        """``obj`` freed; ``used`` is the allocator's total after."""

    # -- data movement -------------------------------------------------
    def on_put(self, t_send: float, t_arrive: float, proc: int, dest: int,
               obj: str, unit: str, nbytes: int) -> None:
        """A data put issued (address known): departs ``t_send``,
        lands on ``dest`` at ``t_arrive``."""

    def on_put_suspend(self, t: float, proc: int, dest: int, obj: str,
                       unit: str, qlen: int) -> None:
        """A put whose remote address is unknown joins the suspended
        sending queue (``qlen`` = queue length after enqueuing)."""

    def on_put_drain(self, t: float, proc: int, dest: int, obj: str,
                     qlen: int) -> None:
        """A suspended put dispatched by CQ after its address became
        known (``qlen`` = suspended sends still queued)."""

    def on_sync(self, t_send: float, t_arrive: float, proc: int, dest: int,
                unit: str) -> None:
        """A synchronisation-only message (no payload)."""

    def on_data_arrive(self, t: float, proc: int, obj: str, unit: str,
                       src: int) -> None:
        """A data put landed in ``proc``'s allocated volatile space."""

    # -- address packages ----------------------------------------------
    def on_package_send(self, t: float, proc: int, dest: int,
                        naddrs: int) -> None:
        """An address package with ``naddrs`` fresh addresses sent."""

    def on_package_block(self, t: float, proc: int, dest: int,
                         naddrs: int) -> None:
        """A MAP blocked: ``dest`` has not consumed the previous package
        (the unbuffered slot of the ordered pair is busy)."""

    def on_package_read(self, t: float, proc: int, src: int,
                        naddrs: int) -> None:
        """RA consumed a package from ``src``, freeing its slot."""


class _NullInstrument(Instrument):
    """Explicitly disabled instrument: attaching it is exactly as cheap
    as attaching nothing (the simulator sees ``enabled = False`` and
    skips all dispatch)."""

    enabled = False


#: Shared disabled instrument (safe: it holds no state).
NULL_INSTRUMENT = _NullInstrument()


class MultiInstrument(Instrument):
    """Composite instrument: forwards every event to each child.

    Disabled children are dropped at construction; a composite with no
    enabled children is itself disabled.

    Hooks are bound once, at construction, so an event costs the
    subscribers' calls and nothing else.  Nested composites are
    flattened (their children take their place, in order), and a child
    that keeps the base no-op for a hook is left out of that hook.  A
    hook with no subscriber stays the inherited no-op, one with a single
    subscriber *is* that child's bound method, and one with several
    calls them in child order.  An instance-level hook (assigned on the
    instance rather than defined on the class) must therefore be set
    before the instrument is composed.
    """

    def __init__(self, children) -> None:
        self.children: tuple = tuple(c for c in children if c.enabled)
        self.enabled = bool(self.children)
        self._bind()

    def __getstate__(self) -> dict:
        # Bound hooks name the children they were built from, so a copy
        # or an unpickled composite binds its own children again.
        return {k: v for k, v in self.__dict__.items()
                if k != "_hooks" and k not in HOOKS}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind()

    def _bind(self) -> None:
        #: hook name -> the flattened subscribers' bound methods.
        self._hooks: dict[str, tuple] = {
            name: tuple(
                f for c in self.children for f in _subscribers(c, name)
            )
            for name in HOOKS
        }
        for name, subs in self._hooks.items():
            if getattr(type(self), name) is not getattr(Instrument, name):
                continue  # a subclass's own hook wins
            if len(subs) == 1:
                setattr(self, name, subs[0])
            elif subs:
                setattr(self, name, _fanout(name, subs))


def _subscribers(inst: Instrument, name: str) -> tuple:
    """The bound methods through which ``inst`` handles hook ``name``:
    a composite's flattened subscribers, a leaf's own method, or nothing
    for a leaf that keeps the base no-op."""
    own = getattr(type(inst), name) is not getattr(Instrument, name)
    if isinstance(inst, MultiInstrument) and not own:
        return inst._hooks[name]
    if own or name in getattr(inst, "__dict__", ()):
        return (getattr(inst, name),)
    return ()


def _fanout(name: str, subs: tuple):
    def fanout(*args):
        for f in subs:
            f(*args)

    fanout.__name__ = name
    fanout.__qualname__ = f"MultiInstrument.{name}"
    return fanout
