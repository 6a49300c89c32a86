"""A replay oracle for the CSMA baseline: every frame's start re-derived from the log.

The overlap oracle takes the start times as given, and the carrier-sense
oracle (`_carrier_sense`) flags only a frame that went out on a channel its
sender sensed busy. So a MAC that waits too long, draws the wrong backoff or
skips a message passes both. Given the whole log, each sender can be
replayed on its own, and its replayed starts must be its logged ones:

- its k-th message falls due at spawn + k·interval, for every such time
  before the run end;
- the access for a message starts at the later of its due time and the end
  of the sender's previous frame;
- a sense at t reads the log under the carrier-sense oracle's rule
  (`sensed_until`): idle, the frame goes out at t; busy, the sender waits
  for the first instant at or after t that no sensed frame covers, the idle
  edge, and takes one backoff from its own stream (`kernel.Pcg64`, stream
  `VEHICLE_STREAM_BASE + vid` of the run seed). A zero backoff sends at the
  edge; any other senses afresh at the edge plus the backoff;
- a replayed start at or before the run end must have its frame in the log,
  and the sender logs no frame beyond those.

The run must have been made under its config's seed. Each sender's replay
is one forward pass over the log: the first frame that may still be sensed
only moves forward. Like the other oracles it reads the records, the
vehicle positions and the configs alone, never the medium's sensing scan.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict

from _carrier_sense import idle_edge, log_records

from platoonsim.kernel import RngStreams
from platoonsim.scenario import MODE_BASELINE, VEHICLE_STREAM_BASE


def replay_faults(run) -> list[tuple[int, int]]:
    """The (vehicle, message index) of each baseline sender's first message
    whose replayed start by the run end is not its logged frame's start, or
    that has a logged frame but no replayed start by then; none in tsnctl mode."""
    cfg = run.cfg
    if cfg.mode != MODE_BASELINE:
        return []
    records, radio, end = log_records(run), cfg.radio, cfg.sim_duration_ns
    positions = {spec.vid: spec.position for spec in run.specs}
    starts = [start for _, _, start, _ in records]
    # a frame that started `span` or more before t has ended at every listener by t
    span = max((stop - start for _, _, start, stop in records), default=0) + radio.max_delay
    cw_max, slot = cfg.csma.cw_slots - 1, cfg.csma.backoff_slot_ns
    streams = RngStreams(cfg.seed)
    sent = defaultdict(list)            # each sender's (start, end), in start order
    for _, sender, start, stop in records:
        sent[sender].append((start, stop))
    faults = []
    for spec in run.specs:
        vid, here, own = spec.vid, spec.position, sent[spec.vid]
        rng = streams.stream(VEHICLE_STREAM_BASE + vid)
        first, k, due, ready, missing = 0, 0, spec.spawn_at, spec.spawn_at, False
        while due < end:
            t = max(due, ready)
            while True:
                first = bisect_left(starts, t - span, first)
                edge = idle_edge(records, starts, first, span, t, here, positions, radio)
                if edge == t:
                    break
                backoff = rng.integers(0, cw_max, endpoint=True) * slot
                t = edge + backoff
                if not backoff:
                    break
            if t > end:
                break
            if k == len(own) or own[k][0] != t:
                missing = True
                break
            ready, due, k = own[k][1], due + cfg.message_interval_ns, k + 1
        if missing or k < len(own):
            faults.append((vid, k))
    return faults
