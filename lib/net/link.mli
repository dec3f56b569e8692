(** The shared bottleneck.

    A single FIFO tail-drop queue served at a fixed rate, modelled as a
    virtual queue: the backlog at time [t] is [(free_at - t) * capacity]
    bytes, where [free_at] is when the server would go idle. A packet
    admitted at [t] departs at [max t free_at + size/capacity] and is
    delivered one propagation delay later; the ACK returns after another
    propagation delay plus noise. Packets are dropped on admission when
    the backlog would exceed the buffer (tail drop) or by random loss.

    {b Dynamic impairments.} A link may carry a {!impairment} schedule:
    piecewise bandwidth/RTT/buffer/loss changes and hard outage windows,
    applied lazily as simulated time passes. Rate changes preserve the
    queued byte count (the unserved backlog is re-served at the new
    rate). An outage takes the link down for a window: admissions during
    the window are refused, and packets already queued either wait for
    the server to come back ([flush = false], the queue drains afterward)
    or are discarded ([flush = true], the queue is flushed). Loss can be
    iid or bursty (two-state Gilbert–Elliott chain), and independent
    reordering/duplication knobs perturb the ACK stream. All randomness
    flows through the seeded RNG supplied at {!create}, so runs remain
    deterministic.

    The ACK path is FIFO: nominal ACK times are clamped to be
    nondecreasing, so an RTT reduction mid-run cannot deliver a later
    packet's ACK before an earlier one (and cannot violate the
    {!Noise.ack_delivery_time} precondition). The optional reordering
    knob adds post-noise delay to randomly chosen ACKs, which is the
    one sanctioned source of out-of-order ACK delivery. *)

type loss_model =
  | Iid of float  (** Independent per-packet loss probability. *)
  | Gilbert_elliott of {
      p_good_bad : float;  (** Per-packet transition probability G→B. *)
      p_bad_good : float;  (** Per-packet transition probability B→G. *)
      loss_good : float;  (** Loss probability in the good state. *)
      loss_bad : float;  (** Loss probability in the bad (burst) state. *)
    }
      (** Two-state bursty-loss chain. Mean burst length is
          [1 / p_bad_good] packets; long-run average loss is
          {!average_loss}. *)

type impairment =
  | Set_bandwidth of float  (** New capacity in Mbps. *)
  | Set_rtt of float  (** New base (propagation) RTT in ms. *)
  | Set_buffer of int  (** New queue capacity in bytes. *)
  | Set_loss of loss_model
      (** Swap the loss model (resets the Gilbert–Elliott state). *)
  | Down of { duration : float; flush : bool }
      (** Link down for [duration] seconds from the entry's time. New
          admissions are refused for the window; the queue is discarded
          when [flush], otherwise it drains once the server returns.
          Windows must not overlap. *)

type config = {
  bandwidth_mbps : float;
  rtt_ms : float;  (** Base (propagation) round-trip time. *)
  buffer_bytes : int;  (** Bottleneck queue capacity. *)
  loss_rate : float;  (** iid random-loss probability, 0 by default. *)
  loss : loss_model option;  (** Supersedes [loss_rate] when set. *)
  noise : Noise.spec;
  schedule : (float * impairment) list;
      (** (absolute time, impairment) pairs; need not be pre-sorted. *)
  reorder_prob : float;  (** Per-ACK probability of extra delay. *)
  reorder_extra_ms : float;  (** Max extra delay of a reordered ACK. *)
  dup_prob : float;  (** Per-packet probability of a duplicate ACK. *)
}

val config :
  ?loss_rate:float ->
  ?loss:loss_model ->
  ?noise:Noise.spec ->
  ?schedule:(float * impairment) list ->
  ?reorder_prob:float ->
  ?reorder_extra_ms:float ->
  ?dup_prob:float ->
  bandwidth_mbps:float ->
  rtt_ms:float ->
  buffer_bytes:int ->
  unit ->
  config
(** Validated constructor: raises [Invalid_argument] on non-positive
    [bandwidth_mbps]/[rtt_ms]/[buffer_bytes], probabilities outside
    [0,1] (including NaN), negative or non-finite schedule times,
    invalid scheduled values, or overlapping outage windows.
    [reorder_extra_ms] defaults to 5 ms. *)

val average_loss : loss_model -> float
(** Long-run average loss probability of the model (for calibrating a
    bursty model against an iid baseline). *)

type outcome =
  | Delivered of { ack_time : float; rtt : float; dup_ack_time : float }
      (** ACK reaches the sender at [ack_time]; [rtt] is the full
          round-trip experienced. [dup_ack_time] is NaN unless the
          duplication knob fired, in which case a duplicate ACK for the
          same packet arrives at that (later) time. *)
  | Dropped of { notify_time : float }
      (** Packet was lost; the sender learns at [notify_time]. *)

type t

val create : ?trace:Proteus_obs.Trace.t -> config -> rng:Proteus_stats.Rng.t -> t
(** Raises [Invalid_argument] on an invalid configuration (see
    {!config}) — this is the choke point for records built without the
    smart constructor. [trace] (default disabled) receives an
    [Impairment] event each time a schedule entry is applied and when
    an outage window ends (note ["up"]). *)

val capacity_bytes_per_sec : t -> float
(** Current service rate (reflects schedule entries applied so far). *)

val base_rtt : t -> float
(** Current base RTT (reflects schedule entries applied so far). *)

val one_way_delay : t -> float
(** Current one-way propagation delay ([base_rtt / 2]). *)

val is_down : t -> now:float -> bool
(** Whether [now] falls inside an outage window. *)

val backlog_bytes : t -> now:float -> float
(** Bytes currently queued (including the packet in service). *)

val queue_delay : t -> now:float -> float
(** Time a packet admitted now would wait before starting service. *)

val transmit : t -> now:float -> size:int -> outcome
(** Offer a packet to the link at time [now]. Calls must be made in
    nondecreasing [now] order (simulated time). *)

val transmit_into : t -> size:int -> out:float array -> bool
(** Allocation-free {!transmit} for per-packet hot paths: the offer
    time [now] comes in [out.(0)] and the outcome lands in the same
    reusable scratch (length >= 3) instead of a fresh {!outcome}, so no
    float crosses the call. [true]: delivered — [out.(0)] is the ACK
    arrival time, [out.(1)] the RTT sample, [out.(2)] the duplicate-ACK
    time or NaN when no duplicate was drawn. [false]: dropped —
    [out.(0)] is the loss-notification time. Identical admission
    sequence and RNG draws to {!transmit}. *)

(** {2 Multi-hop primitives}

    When a link serves as one hop of a {!Topology} route it is driven
    through [forward]/[ack_transit] instead of [transmit]: the same
    admission machinery (outage refusal, random loss, tail drop, outage
    lookahead) applies per hop, but delivery is one-way and the reverse
    direction is modelled by explicit reverse-route links. The
    noise/reorder/dup knobs are dumbbell-only and ignored on these
    paths. *)

val forward : t -> size:int -> out:float array -> bool
(** One-way analogue of {!transmit_into}: offer a packet to this hop at
    the time in [out.(0)] (nondecreasing across calls). [true]: it
    reaches the far end of the hop at the time now in [out.(0)];
    [false]: lost on this hop (outage, random loss or tail drop). *)

val ack_transit : t -> out:float array -> unit
(** Delivery time at the far end for an ACK that reaches this hop at
    [out.(1)] ([>= out.(0)], possibly in the future), written back to
    [out.(1)]. [out.(0)] must be simulated-now: the impairment schedule
    is synced to it, not to the arrival. The ACK waits behind the hop's
    data backlog as of now, pays [Units.ack_bytes] of serialization and
    one propagation delay; ACKs are never dropped and never
    queue-build. *)

(** {2 Fluid background tier}

    A link may carry one {!Aggregate} of fluid background classes. The
    aggregate is advanced lazily at every link sync (and up to each
    impairment instant before it applies); packet-level flows then see
    it as contention: their service rate is the raw capacity minus the
    fluid's served rate (with the queued packet backlog re-served at
    each rate change, exactly like [Set_bandwidth]), the fluid backlog
    occupies the shared buffer and shrinks the tail-drop headroom, and
    while the fluid is shedding, foreground packets are additionally
    lost with the fluid's shed fraction. Links without an aggregate are
    bit-identical to the historical single-tier link: same arithmetic,
    same RNG draws. *)

val attach_fluid : t -> Aggregate.t -> unit
(** Attach the fluid background aggregate. Must happen before any
    traffic crosses the link (the aggregate integrates from time 0);
    raises [Invalid_argument] if one is already attached. *)

val fluid : t -> Aggregate.t option
(** The attached aggregate, if any. *)

val sync_fluid : t -> now:float -> unit
(** Advance the impairment schedule and the fluid aggregate to [now]
    without offering a packet — used to bring the fluid byte accounting
    up to the horizon before reading {!Aggregate.totals} at the end of
    a run. *)
