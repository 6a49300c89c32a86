"""Application-layer slot controller: formation FSM, election, slot schedule, gated dissemination.

Time is carved into repeating windows (default 100 ms) of fixed-length slots.
Slots 0 and 1 are reserved for control traffic: joining vehicles broadcast an
announce at a random offset inside slot 0, the elected master answers with a
slot allocation in slot 1, and members then transmit data only inside their
assigned slots. Election picks the vehicle whose announce carries the earliest
creation timestamp (ties to the lowest id). All windows lie on one grid: one
`WindowClock` per run raises one kernel event at each window start, end of
slot 0 and end of slot 1. It calls every controller at the window start, and
at the slot ends only the controllers that act there: the window's formation
round, the vehicles that its start left JOINING, and at the end of slot 0 the
platoon masters too.

The master admits by one rule, `admit`, at formation and at each refresh: each
member holds one data slot, never moved, shared, reserved or past the window.

Control transmissions in slots 0/1 listen before talk and skip to the next
window when the medium is already busy; that keeps the contended formation
slots nearly collision-free, which is what the random in-slot offsets are for.
Data transmissions never sense: an assigned slot is exclusive by construction.
A frame too large for any slot is transmitted anyway at its slot origin and
overruns into the neighbour slot rather than being dropped, so undersized
slot configurations degrade instead of silently discarding traffic.

A controller takes the application messages due by a burst step's start
from its source each time the step reads its queues, so a message generated
at t is queued for every step from t on. A slot-1 burst step is a kernel event that checks its head
and senses the medium when it fires. The data slots need no event of their
own: nothing in them senses, so once slot 1 ends the clock sends every
member's data-slot burst from its own event, frame by frame in start order.

An allocation acts at once, so its master asks the medium to deliver it, and
a controller takes it only where it arrived clean. Everything else is read
back from the medium's log when it is needed: the election and the master's
admission read the clean announces heard since the window started, and a
slave learns that its master is alive from the master's latest clean arrival
at it. The clock takes the window's announces from where the window opened in
the log and orders them by election key once; a vehicle announces at most once
per window, so a listener's first clean one is its best heard candidate, and a
listener that loses reads no further. A controller follows its master's
election key, which each frame of the master carries, as its creation time.
The election weighs at most that announce, the listener itself and its
master, and reads the master's liveness only when the master could win.

A controller keeps no flag for what its other state already says. A master's
allocation went out iff it holds a schedule: it takes the schedule when the
frame goes out, and a superseded master drops it. A slave was admitted iff it
holds a slot. The end of slot 1 reads its outcome from these two.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from enum import IntEnum, auto
from itertools import count

from .frames import (
    ANNOUNCE_SIZE,
    Frame,
    allocation_size,
    make_allocation,
    make_announce,
)
from .kernel import Kernel, MS, Pcg64, TIMER
from .radio import Medium, RadioConfig, tx_duration

# A slave that hears no clean frame of its master for this many windows
# falls back to INIT and rejoins.
MASTER_TIMEOUT_WINDOWS = 3


class ProtocolError(RuntimeError):
    """An FSM event fired in a state where it is not legal."""


# IntEnum for a C-level hash in the LEGAL_EDGES lookup. Members of different
# classes compare equal as ints, so compare members with `is`.
class Status(IntEnum):
    INIT = auto()
    JOINING = auto()
    IN_PLATOON = auto()


class Role(IntEnum):
    SLAVE = auto()
    MASTER = auto()


@dataclass(slots=True, frozen=True)
class FsmState:
    status: Status
    role: Role


class FsmEvent(IntEnum):
    WINDOW_START = auto()
    SLOT0_END = auto()
    SLOT1_END = auto()
    ALLOCATION_RECEIVED = auto()
    OWN_SLOT_TRIGGER = auto()
    NO_NEIGHBORS = auto()
    MASTER_LOST = auto()


# The members, bound once for the per-event paths (see `kernel.EventKind`).
INIT, JOINING, IN_PLATOON = Status
SLAVE, MASTER = Role
(WINDOW_START, SLOT0_END, SLOT1_END, ALLOCATION_RECEIVED, OWN_SLOT_TRIGGER,
 NO_NEIGHBORS, MASTER_LOST) = FsmEvent


# (status, role, event, outcome) -> next state. Outcomes qualify
# data-dependent events: election results, whether an allocation listed us,
# whether it came from a better master, whether slot 1 produced/delivered an
# allocation. The numbered formation steps of the protocol map onto edges as
# commented. Edges marked "recovery" cover master failure and master conflict,
# which the base protocol leaves open.
LEGAL_EDGES: dict[tuple[Status, Role, FsmEvent, str | None], FsmState] = {
    (INIT, SLAVE, WINDOW_START, None): FsmState(JOINING, SLAVE),
    # joining vehicles re-announce every window until admitted (step 3 restart,
    # step 4 lone-master retry)
    (JOINING, SLAVE, WINDOW_START, None): FsmState(JOINING, SLAVE),
    (JOINING, MASTER, WINDOW_START, None): FsmState(JOINING, MASTER),
    # election at the end of slot 0: steps 1 and 2; step 5 demotes a
    # persisting master when a newer round elects someone earlier
    (JOINING, SLAVE, SLOT0_END, "won"): FsmState(JOINING, MASTER),
    (JOINING, SLAVE, SLOT0_END, "lost"): FsmState(JOINING, SLAVE),
    (JOINING, MASTER, SLOT0_END, "won"): FsmState(JOINING, MASTER),
    (JOINING, MASTER, SLOT0_END, "lost"): FsmState(JOINING, SLAVE),
    # step 4: a master heard nobody and restarts next window
    (JOINING, MASTER, NO_NEIGHBORS, None): FsmState(JOINING, MASTER),
    # step 7: master dispatched its allocation and owns a platoon
    (JOINING, MASTER, SLOT1_END, "allocated"): FsmState(IN_PLATOON, MASTER),
    (JOINING, MASTER, SLOT1_END, "missed"): FsmState(JOINING, MASTER),
    # slaves: allocation handling and step 6 confirmation at the slot trigger
    (JOINING, SLAVE, ALLOCATION_RECEIVED, "listed"): FsmState(JOINING, SLAVE),
    (JOINING, SLAVE, ALLOCATION_RECEIVED, "unlisted"): FsmState(JOINING, SLAVE),
    (JOINING, SLAVE, ALLOCATION_RECEIVED, "ignored"): FsmState(JOINING, SLAVE),
    (JOINING, MASTER, ALLOCATION_RECEIVED, "superseded"):
        FsmState(JOINING, SLAVE),  # recovery: earlier master exists
    (JOINING, MASTER, ALLOCATION_RECEIVED, "ignored"): FsmState(JOINING, MASTER),
    (JOINING, SLAVE, OWN_SLOT_TRIGGER, None): FsmState(IN_PLATOON, SLAVE),
    (JOINING, SLAVE, SLOT1_END, "allocated"): FsmState(JOINING, SLAVE),
    (JOINING, SLAVE, SLOT1_END, "missed"): FsmState(JOINING, SLAVE),  # step 3
    # steady state
    (IN_PLATOON, SLAVE, WINDOW_START, None): FsmState(IN_PLATOON, SLAVE),
    (IN_PLATOON, MASTER, WINDOW_START, None): FsmState(IN_PLATOON, MASTER),
    (IN_PLATOON, SLAVE, OWN_SLOT_TRIGGER, None): FsmState(IN_PLATOON, SLAVE),
    (IN_PLATOON, MASTER, OWN_SLOT_TRIGGER, None): FsmState(IN_PLATOON, MASTER),
    (IN_PLATOON, SLAVE, ALLOCATION_RECEIVED, "refresh"): FsmState(IN_PLATOON, SLAVE),
    (IN_PLATOON, SLAVE, ALLOCATION_RECEIVED, "ignored"): FsmState(IN_PLATOON, SLAVE),
    (IN_PLATOON, MASTER, ALLOCATION_RECEIVED, "ignored"): FsmState(IN_PLATOON, MASTER),
    # recovery: silent master, or a competing platoon with an earlier master
    (IN_PLATOON, SLAVE, MASTER_LOST, None): FsmState(INIT, SLAVE),
    (IN_PLATOON, SLAVE, ALLOCATION_RECEIVED, "superseded"): FsmState(JOINING, SLAVE),
    (IN_PLATOON, MASTER, ALLOCATION_RECEIVED, "superseded"): FsmState(JOINING, SLAVE),
}


# The FSM record of each edge, (state, event, outcome, next state), built once:
# every step along an edge appends the same tuple to `TsnCtl.transitions`.
_RECORDS = {(status, role, event, outcome): (FsmState(status, role), event, outcome, nxt)
            for (status, role, event, outcome), nxt in LEGAL_EDGES.items()}


# -- window geometry ---------------------------------------------------------


@dataclass(slots=True)
class WindowConfig:
    window_ns: int = 100 * MS
    slot_len_ns: int = 2 * MS

    def validate(self) -> None:
        if self.slot_len_ns <= 0 or self.window_ns <= 0:
            raise ValueError("window and slot length must be positive")
        if slot_count(self) < 3:
            raise ValueError(
                "window must hold at least three slots (two control, one data); "
                f"got window={self.window_ns} ns, slot={self.slot_len_ns} ns"
            )


def slot_count(cfg: WindowConfig) -> int:
    """Number of whole slots per window; a non-dividing tail goes unused."""
    return cfg.window_ns // cfg.slot_len_ns


def announce_offset(rng: Pcg64, cfg: WindowConfig, tx_dur: int) -> int:
    """Random start offset inside slot 0 such that the frame fits the slot,
    which `check_slot_geometry` makes possible for an announce."""
    return rng.integers(0, cfg.slot_len_ns - tx_dur, endpoint=True)


def slot1_bounds(w: int, cfg: WindowConfig, guard: int, tx_dur: int) -> tuple[int, int]:
    """Earliest and latest start in window w's slot 1 of a frame that keeps
    one guard from either slot end; it cannot fit when the latest is earlier."""
    slot = cfg.slot_len_ns
    return w + slot + guard, w + 2 * slot - tx_dur - guard


def check_slot_geometry(cfg: WindowConfig, radio: RadioConfig, payload_size_b: int) -> None:
    """Reject slots the controller cannot run on: an announce must fit slot 0,
    a beacon the window, and a two-member allocation slot 1 between two guards."""
    announce = tx_duration(ANNOUNCE_SIZE, radio)
    if announce > cfg.slot_len_ns:
        raise ValueError(
            f"an announce ({announce} ns on air) does not fit one {cfg.slot_len_ns} ns slot"
        )
    beacon = tx_duration(payload_size_b, radio)
    if beacon > cfg.window_ns:
        raise ValueError(
            f"a payload_size_b={payload_size_b} beacon ({beacon} ns on air) "
            f"outlasts the window_ns={cfg.window_ns} window"
        )
    guard = radio.max_delay
    alloc = tx_duration(allocation_size(2), radio)
    lo, hi = slot1_bounds(0, cfg, guard, alloc)
    if hi < lo:
        raise ValueError(
            f"slot_len_ns={cfg.slot_len_ns} cannot hold a two-member "
            f"allocation ({alloc} ns on air) between two {guard} ns guards, "
            f"the propagation delay over range_m={radio.range_m}"
        )


# -- slot schedule -----------------------------------------------------------
#
# A schedule maps each member to its one data slot index; the allocation
# payload and a slave's own slot are the same indices, unconverted.


def election_key(ts: int, vid: int) -> tuple[int, int]:
    """The election order: the earlier announce timestamp wins, ties to lowest id."""
    return ts, vid


def admit(assignments: dict[int, int], requesters: list[int],
          cfg: WindowConfig) -> tuple[dict[int, int], list[int]]:
    """Give each newcomer, in id order, the lowest free data slot.

    A requester that already holds a slot keeps it, and a newcomer takes only
    an index of range(2, slot_count(cfg)) that no member holds. So the result
    has no reserved, out-of-window or shared slot when `assignments` has none,
    as {} and every earlier result have. A newcomer that finds no free slot is
    rejected and returned in the second element.
    """
    used = set(assignments.values())
    free = (idx for idx in range(2, slot_count(cfg)) if idx not in used)
    admitted = dict(assignments)
    rejected: list[int] = []
    for vid in sorted(requesters):
        if vid in admitted:
            continue
        idx = next(free, None)
        if idx is None:
            rejected.append(vid)
        else:
            admitted[vid] = idx
    return admitted, rejected


# -- priority queues ----------------------------------------------------------


class PriorityQueueSet:
    """Strict-priority FIFO set; queue 0 drains before anything in queue 1, etc."""

    def __init__(self, levels: int = 2):
        if levels < 1:
            raise ValueError("need at least one priority level")
        self.queues: list[deque[Frame]] = [deque() for _ in range(levels)]

    def push(self, frame: Frame) -> None:
        if not 0 <= frame.priority < len(self.queues):
            raise ValueError(f"unknown priority class {frame.priority}")
        self.queues[frame.priority].append(frame)

    def pop(self) -> Frame:
        for q in self.queues:
            if q:
                return q.popleft()
        raise IndexError("pop from empty queue set")

    def __len__(self) -> int:
        return sum(map(len, self.queues))


# -- controller ----------------------------------------------------------------


class WindowClock:
    """Calls its members at each window start, end of slot 0 plus the guard and
    end of slot 1, one kernel event each, in the order in which per-member
    timers armed a window ahead would fire: a member acts from the first window
    start after its creation, and one created on a boundary before the clock's
    event there goes to the head of the order, any other to the tail.

    At the window start it calls every member; at the two slot ends it calls,
    in the same order, only the members that act there: the end of slot 0 goes
    to those whose window start returned true, the members in the formation
    round and the platoon masters; the end of slot 1 goes to the round alone,
    the members that the window start left JOINING.
    That is exact, since a member joins the round only at a window start, a
    master leads only from the end of a slot 1, and a member created after the
    window start takes its first one a window later.

    The guard is the propagation delay over the radio range: every frame sent
    in a slot has arrived everywhere by its end plus the guard. Only announces
    start from a window start to its end of slot 0: slot-1 frames are armed
    there or later, and no burst step runs past its window.

    The data phase. A member arms the step that opens its data slot as its
    `_burst`, stamped from the shared `stamps` in arm order. The slot-1-end
    event closes the round, then runs every armed step and its successors
    in (start, stamp) order, which interleaves members that hold one slot
    index under different masters. A data-slot step senses nothing and
    raises no event, so the clock runs those that start before
    `Kernel.horizon`; it hands the rest back to their members and arms
    itself there while the window lasts, so an event inside the window (a
    spawn, an allocation, the run end) acts before every frame that starts
    at or after it.

    At T = w + 2 slots, the steps armed before the slot-1-end event go first,
    then the events pending at T, then the steps armed at T. Per-member
    triggers ordered one case otherwise, by scheduling sequence: a slave
    listed for slot 2 during slot 1 against an allocation arriving at it at
    T. Their outcome there rested on dispatch order already.
    """

    TARGET = -1     # the kernel target of the clock's events; vehicle ids are >= 0

    def __init__(self, kernel: Kernel, medium: Medium, wcfg: WindowConfig):
        self.kernel = kernel
        self.medium = medium
        self.wcfg = wcfg
        self.guard = medium.cfg.max_delay
        self.members: list[TsnCtl] = []
        self._early: list[TsnCtl] = []      # joined at the pending window start
        self.stamps = count()               # orders the data-slot steps, shared with members
        self._next = (kernel.now // wcfg.window_ns + 1) * wcfg.window_ns
        kernel.at(self._next, self.TARGET, TIMER, self._on_window_start, self._next)

    def join(self, ctl: TsnCtl) -> None:
        (self._early if self.kernel.now == self._next else self.members).append(ctl)

    def _on_window_start(self, w: int) -> None:
        opened = len(self.medium.log)
        acting = [ctl for ctl in self.members if ctl._on_window_start(w)]
        in_round = [ctl for ctl in acting if ctl.state.status is JOINING]
        self.members[:0], self._early = self._early, []
        self._next = w + self.wcfg.window_ns
        at, slot = self.kernel.at, self.wcfg.slot_len_ns
        at(w + slot + self.guard, self.TARGET, TIMER, self._on_slot0_end, (w, opened, acting))
        at(w + 2 * slot, self.TARGET, TIMER, self._on_slot1_end, (w, in_round))
        at(self._next, self.TARGET, TIMER, self._on_window_start, self._next)

    def _on_slot0_end(self, payload: tuple[int, int, list[TsnCtl]]) -> None:
        w, opened, acting = payload
        announces = self.medium.log[opened:]
        announces.sort(key=lambda f: election_key(f.generated_at, f.sender))
        for ctl in acting:
            ctl._on_slot0_end(w, announces)

    def _on_slot1_end(self, payload: tuple[int, list[TsnCtl]]) -> None:
        w, in_round = payload
        mark = next(self.stamps)
        for ctl in in_round:
            ctl._on_slot1_end(w)
        self._data_phase((w, mark))

    def _data_phase(self, payload: tuple[int, int]) -> None:
        """Run the armed data-slot steps of window w that start before the horizon.

        The steps stamped before `mark` that start now run first, also
        when another event is pending now: slot 1's end passes its mark.
        """
        w, mark = payload
        kernel = self.kernel
        now, horizon = kernel.now, kernel.horizon()
        steps = []
        for ctl in self.members:
            if ctl._burst is not None:
                steps.append((*ctl._burst, ctl))
                ctl._burst = None
        steps.sort()
        stamps = self.stamps
        i = 0
        while i < len(steps):
            at, stamp, opens, ctl = steps[i]
            if at >= horizon and (at > now or stamp > mark):
                break
            i += 1
            at = ctl._data_step(w, at, opens)
            if at is not None:
                # armed now, so after every step already armed at its start
                insort(steps, (at, next(stamps), False, ctl), i)
        for at, stamp, opens, ctl in steps[i:]:
            ctl._burst = at, stamp, opens
        if horizon < w + self.wcfg.window_ns:
            kernel.at(horizon, self.TARGET, TIMER, self._data_phase, (w, -1))


class TsnCtl:
    """One vehicle's controller instance, driven by its clock and kernel events.

    It stores no derived fact: a master's allocation went out iff it holds a
    `schedule`, and a slave was admitted iff it holds `my_slot`. `master` is
    its master's election key: a vehicle's frames all carry its `created_at`.

    `transitions` holds one record per FSM step, and every step along one
    edge appends the same tuple, built once at import from `LEGAL_EDGES`.
    A join retry is a window start taken while JOINING, so the retries are
    the `(JOINING, *, WINDOW_START)` records there and no counter repeats them.

    Liveness has a deadline: a clean arrival of the master's frame at `a`
    keeps the master live while now < a + MASTER_TIMEOUT_WINDOWS windows.
    The controller remembers the latest arrival it read and whose it was,
    and reads the log again only once that deadline has passed; the
    arrival still lies inside the interval such a read would scan, so
    the answer is the same.
    """

    def __init__(self, vid: int, clock: WindowClock, rng: Pcg64, *, source):
        self.vid = vid
        self.kernel = kernel = clock.kernel
        self.medium = clock.medium
        self.wcfg = clock.wcfg
        self.guard = clock.guard
        self.rng = rng

        self.state = FsmState(INIT, SLAVE)
        self.created_at = kernel.now            # announce timestamp, stable across retries
        self.queues = PriorityQueueSet()
        # the application's message source, a `scenario.ItsService` in a run,
        # read by `pull`; no burst step acts after its run end (`source.end`)
        self.source = source
        self.schedule: dict[int, int] | None = None   # a master's own schedule
        self.my_slot: int | None = None
        self.master: tuple[int, int] | None = None    # (timestamp, id) of the master we follow
        # the next step of our data-slot burst that the clock has yet to run,
        # as (start, stamp, whether it opens the slot); a reset drops it
        self._burst: tuple[int, int, bool] | None = None
        self._stamps = clock.stamps
        # the latest clean arrival `_master_silent` read, and whose frame it was
        self._heard_from: int | None = None
        self._heard_at = 0

        self.transitions: list[tuple[FsmState, FsmEvent, str | None, FsmState]] = []
        self.deferred = 0
        self.rejected_joins = 0
        self.announce_skips = 0
        clock.join(self)

    # -- public surface ------------------------------------------------------

    def pull(self, now: int) -> None:
        """Queue the source's messages due by now: one generated at t is queued at t."""
        source = self.source
        while source.next_due is not None and source.next_due <= now:
            self.queues.push(source.take())

    # -- FSM ------------------------------------------------------------------

    def _step(self, event: FsmEvent, outcome: str | None = None) -> None:
        state = self.state
        record = _RECORDS.get((state.status, state.role, event, outcome))
        if record is None:
            raise ProtocolError(
                f"illegal FSM event {event.name} (outcome={outcome!r}) in state "
                f"{state.status.name}/{state.role.name}"
            )
        self.transitions.append(record)
        self.state = record[3]

    # -- window machinery -------------------------------------------------------

    def _on_window_start(self, w: int) -> bool:
        """Start window w; return whether we act at its end of slot 0.

        We do if we join its formation round, which leaves us JOINING, or lead
        a platoon; only a member of the round acts at its end of slot 1.
        """
        state = self.state
        if state.status is IN_PLATOON:
            if state.role is MASTER or not self._master_silent():
                self._step(WINDOW_START)
                self._arm_slot(w)
                return state.role is MASTER
            self._step(MASTER_LOST)
            self._reset_membership()
        self._step(WINDOW_START)
        off = announce_offset(self.rng, self.wcfg, self.medium.airtime(ANNOUNCE_SIZE))
        self.kernel.at(w + off, self.vid, TIMER, self._try_announce, None)
        return True

    def _master_silent(self) -> bool:
        """No clean frame of the master for the timeout, counted from creation.

        The log is read only past the deadline of the arrival last read."""
        if self.master is None:
            return True
        master = self.master[1]
        since = self.kernel.now - MASTER_TIMEOUT_WINDOWS * self.wcfg.window_ns
        if self.created_at > since or (master == self._heard_from and self._heard_at > since):
            return False
        arrival = self.medium.last_clean_arrival(self.vid, master, since)
        if arrival is None:
            return True
        self._heard_from, self._heard_at = master, arrival
        return False

    def _reset_membership(self) -> None:
        self.schedule = None
        self.my_slot = None
        self.master = None
        self._burst = None

    # -- slot 0: announce -------------------------------------------------------

    def _try_announce(self, _payload) -> None:
        # armed in slot 0 of a window whose start put us in JOINING; every
        # edge out of JOINING fires in slot 1 or later
        if self.medium.idle_from(self.vid, self.kernel.now) > self.kernel.now:
            self.announce_skips += 1
            return
        self.medium.broadcast(make_announce(self.vid, self.created_at))

    # -- end of slot 0: election, or a platoon master's admission ------------------

    def _on_slot0_end(self, w: int, announces: list[Frame]) -> None:
        """Elect, or admit as a platoon master; `announces` are in election order."""
        leads = self.state.status is IN_PLATOON and self.state.role is MASTER
        heard = self.medium.clean_receptions(self.vid, announces)
        best = next(heard, None)
        if leads:
            if best is not None:
                self._schedule_alloc_tx(w, self.schedule, [best.sender] + [a.sender for a in heard])
            else:
                self._send(w)
            return
        key = election_key(self.created_at, self.vid)
        if best is not None:
            key = min(key, election_key(best.generated_at, best.sender))
        # only a master unheard this window can beat the rest; its liveness is read only then
        master = self.master
        if master is not None and master < key and not self._master_silent():
            key = master
        ts, winner = key

        if winner != self.vid:
            self._step(SLOT0_END, "lost")
            self.master = key
            return

        self._step(SLOT0_END, "won")
        if best is None:
            self._step(NO_NEIGHBORS)
            return
        self._schedule_alloc_tx(w, {}, [self.vid, best.sender] + [a.sender for a in heard])

    # -- slot 1: allocation --------------------------------------------------------

    def _schedule_alloc_tx(self, w: int, base: dict[int, int], requesters: list[int]) -> None:
        """Admit the requesters into base and time its allocation inside slot 1."""
        sched, rejected = admit(base, requesters, self.wcfg)
        self.rejected_joins += len(rejected)
        dur = self.medium.airtime(allocation_size(len(sched)))
        lo, hi = slot1_bounds(w, self.wcfg, self.guard, dur)
        if hi < lo:
            return  # allocation cannot fit slot 1 for this member count
        at = self.rng.integers(lo, hi, endpoint=True)
        self.kernel.at(at, self.vid, TIMER, self._try_alloc, (w, sched))

    def _try_alloc(self, payload: tuple[int, dict[int, int]]) -> None:
        w, sched = payload
        # a master is forming (JOINING) or refreshing (IN_PLATOON); no edge
        # leads to INIT as a master, and one superseded since is a slave
        if self.state.role is not MASTER:
            return
        if self.medium.idle_from(self.vid, self.kernel.now) > self.kernel.now:
            return  # contended control slot: retry next window
        tx = self.medium.broadcast(make_allocation(self.vid, self.created_at, sched))
        self.medium.deliver(tx)     # before the burst step at tx.end, which an arrival may share
        self.schedule = sched
        if self.state.status is IN_PLATOON:   # a refresh
            self.kernel.at(tx.end, self.vid, TIMER, self._send, w)

    def _on_slot1_end(self, w: int) -> None:
        """Close the formation round we joined at window start."""
        master = self.state.role is MASTER
        held = self.schedule if master else self.my_slot
        self._step(SLOT1_END, "missed" if held is None else "allocated")
        if master and held is not None:
            self.my_slot = held[self.vid]
            self.master = election_key(self.created_at, self.vid)
            self._arm_slot(w)

    # -- allocation reception ---------------------------------------------------------

    def on_frame_delivery(self, frame: Frame) -> None:
        """The medium's handler: an allocation that arrived clean.

        It decides the outcome, steps the FSM once, then applies the effects."""
        key = election_key(frame.generated_at, frame.sender)
        master = self.master
        listed = self.vid in frame.allocations
        st = self.state
        if st.status is INIT:   # no edge leaves INIT on a frame: note the master
            self.master = key
            return
        if st.status is IN_PLATOON:
            if key == master:
                outcome = "refresh" if listed else "superseded"
            else:
                outcome = "superseded" if key < master else "ignored"
        elif st.role is MASTER:
            outcome = "superseded" if key < election_key(self.created_at, self.vid) else "ignored"
        elif master is None or key <= master:
            outcome = "listed" if listed else "unlisted"
        else:
            outcome = "ignored"
        self._step(ALLOCATION_RECEIVED, outcome)

        if outcome == "ignored":
            return
        if outcome == "superseded":
            self._reset_membership()
        self.master = key
        if listed:
            # a slave reads only its own slot, which `admit` gave it alone
            self.my_slot = frame.allocations[self.vid]
            if outcome != "refresh":
                # fresh membership: arm this window's slot, in place of any
                # step armed before; a refresh keeps the one armed at window
                # start (our own slot never moves). Windows lie on one grid,
                # and an allocation arrives inside its own, by the end of slot 1.
                now = self.kernel.now
                self._arm_slot(now - now % self.wcfg.window_ns)

    # -- bursts: slot 1 and the data slots ---------------------------------------------
    #
    # A burst walks the priority queues and transmits back-to-back until the
    # next frame would cross the slot boundary. A frame that cannot fit any
    # slot transmits once per window, from the member's slot origin, and overruns.
    # Slot-1 bursts (master only) carrier-sense each frame because that slot
    # is shared control airtime; owned data slots are exclusive and do not.
    # A slot-1 burst runs as kernel events (`_send`); the window clock runs
    # every data-slot burst (`_data_step`) from its own events.

    def _arm_slot(self, w: int) -> None:
        """Arm the step that opens our data slot in window w, unless its origin has passed."""
        origin = w + self.my_slot * self.wcfg.slot_len_ns
        self._burst = (origin, next(self._stamps), True) if origin >= self.kernel.now else None

    def _head_fits(self, now: int, end: int, opens: bool) -> bool:
        """Whether the head of the queues, as they stand at now, may start at now.

        It reads the source only when `source.next_due` falls by now. The
        step that opens a data slot (`opens`) runs at the slot origin, so its
        head either ends by the slot end or is too long for any slot and
        overruns: it always goes out. When a frame is queued but may not
        start, the queued frames count as deferred.
        """
        due = self.source.next_due
        if due is not None and due <= now:
            self.pull(now)
        queues = self.queues.queues
        for queue in queues:
            if queue:
                if opens:
                    return True
                size = queue[0].size
                if now + (self.medium.airtimes.get(size) or self.medium.airtime(size)) <= end:
                    return True
                self.deferred += sum(map(len, queues))
                return False
        return False

    def _send(self, w: int) -> None:
        """A slot-1 burst step at now: send the head of the queues, then arm the next step.

        It checks afresh whether its head fits and the medium is idle, since
        slot 1 is shared. An allocation can supersede the master there, and
        a superseded master stays a slave until the next end of slot 0, so
        the step acts only while we are master.
        """
        if self.state.role is not MASTER:
            return
        now = self.kernel.now
        if not self._head_fits(now, w + 2 * self.wcfg.slot_len_ns, False):
            return
        if self.medium.idle_from(self.vid, now) > now:
            self.deferred += len(self.queues)
            return
        at = self.medium.broadcast(self.queues.pop()).end
        self.kernel.at(at, self.vid, TIMER, self._send, w)

    def _data_step(self, w: int, at: int, opens: bool) -> int | None:
        """Our data-slot burst step at `at` in window w; return when the next one starts, or None.

        The window clock runs it. The step that opens the slot confirms a
        joining slave (step 6) and sends the head of the queues, if any; a
        later step was settled when the frame before it started, so it sends
        at once. Each step settles its own successor: only the burst reads
        the queues before the next window start, and a step at or after that
        start, or after the run end, would not act.
        """
        end = w + (self.my_slot + 1) * self.wcfg.slot_len_ns
        if opens:
            self._step(OWN_SLOT_TRIGGER)
            if not self._head_fits(at, end, True):
                return None
        at = self.medium.broadcast(self.queues.pop(), at).end
        if (at < w + self.wcfg.window_ns and at <= self.source.end
                and self._head_fits(at, end, False)):
            return at
        return None
