exception Violation of string

module Trace = Proteus_obs.Trace

(* Event kinds, encoded as ints so the trace ring stays allocation-free
   in steady state. *)
let k_sent = 0
let k_ack = 1
let k_dup = 2
let k_loss = 3

let kind_name = function
  | 0 -> "sent"
  | 1 -> "ack "
  | 2 -> "dup "
  | _ -> "loss"

type flow_state = {
  label : string;
  outstanding : int Seq_table.t; (* seq -> size *)
  mutable sent : int;
  mutable acked : int;
  mutable lost : int;
  mutable dups : int;
  mutable acked_bytes : int;
}

(* Event times live in float arrays, not in mutable record fields: a
   float stored in a mixed record is boxed, and these are stored on
   every packet event. *)
type t = {
  mutable flows : flow_state array;
  mutable flow_time : float array; (* per flow: last ACK/loss/dup time *)
  mutable n_flows : int;
  (* Ring of the last [trace] events: parallel arrays, oldest
     overwritten first. *)
  ring_kind : int array;
  ring_flow : int array;
  ring_seq : int array;
  ring_time : float array;
  mutable ring_pos : int;
  mutable ring_len : int;
  mutable checked : int;
  clock : float array; (* [|latest event time seen|] *)
  obs : Trace.t;
  (* Per-link hop occupancy counters (multi-hop topologies), indexed by
     link id and grown on demand. Hop events are cross-checks layered
     under the flow-level conservation law; they deliberately do not
     touch [checked] or the event ring. *)
  mutable hop_entered : int array;
  mutable hop_exited : int array;
  mutable hop_dropped : int array;
  mutable hop_checked : int;
  (* Fluid-conservation probes: one closure per fluid-carrying link
     reading that link's aggregate byte totals. Closure-based so the
     auditor stays independent of the fluid tier's types. Newest
     first; checked in registration order. *)
  mutable fluids : (int * (unit -> float * float * float * float)) list;
}

let create ?(trace = 64) ?(obs = Trace.disabled) () =
  if trace <= 0 then invalid_arg "Audit.create: trace must be positive";
  {
    obs;
    flows = [||];
    flow_time = [||];
    n_flows = 0;
    ring_kind = Array.make trace 0;
    ring_flow = Array.make trace 0;
    ring_seq = Array.make trace 0;
    ring_time = Array.make trace 0.0;
    ring_pos = 0;
    ring_len = 0;
    checked = 0;
    clock = [| neg_infinity |];
    hop_entered = [||];
    hop_exited = [||];
    hop_dropped = [||];
    hop_checked = 0;
    fluids = [];
  }

let register_flow t ~label =
  let fs =
    {
      label;
      outstanding = Seq_table.create ~capacity:64 0;
      sent = 0;
      acked = 0;
      lost = 0;
      dups = 0;
      acked_bytes = 0;
    }
  in
  if t.n_flows = Array.length t.flows then begin
    let cap = max 4 (2 * Array.length t.flows) in
    let a = Array.make cap fs in
    Array.blit t.flows 0 a 0 t.n_flows;
    t.flows <- a;
    let ft = Array.make cap neg_infinity in
    Array.blit t.flow_time 0 ft 0 t.n_flows;
    t.flow_time <- ft
  end;
  t.flows.(t.n_flows) <- fs;
  t.n_flows <- t.n_flows + 1;
  t.n_flows - 1

let recent_events t =
  let n = t.ring_len in
  let cap = Array.length t.ring_kind in
  List.init n (fun i ->
      let j = (t.ring_pos - n + i + (2 * cap)) mod cap in
      Printf.sprintf "%12.6f  %s flow=%s seq=%d"
        t.ring_time.(j)
        (kind_name t.ring_kind.(j))
        (if t.ring_flow.(j) < t.n_flows then t.flows.(t.ring_flow.(j)).label
         else string_of_int t.ring_flow.(j))
        t.ring_seq.(j))

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      (* Fatal path: publishing the violation on the observability bus is
         allowed to allocate. *)
      if Trace.enabled t.obs then
        Trace.emit t.obs ~time:t.clock.(0) ~kind:Trace.Audit_violation
          ~flow:(-1) ~seq:t.checked ~a:0.0 ~b:0.0 ~note:msg;
      let trace = String.concat "\n" (recent_events t) in
      raise
        (Violation
           (Printf.sprintf
              "audit violation: %s\nlast %d events (oldest first):\n%s" msg
              t.ring_len trace)))
    fmt

(* The entry points below are small and [@inline], so in an optimised
   build the caller's unboxed event time flows straight into the float
   arrays. Every violation is raised from a separate [@inline never]
   function: floats are boxed for the message only when a check fails. *)

let[@inline never] unregistered t flow =
  fail t "event for unregistered flow id %d" flow

let[@inline] flow_state t flow =
  if flow < 0 || flow >= t.n_flows then unregistered t flow
  else Array.unsafe_get t.flows flow

let[@inline never] clock_backwards t ~what time =
  fail t "clock went backwards: %s at %.9f after %.9f" what time t.clock.(0)

(* The simulator clock can only move forward. *)
let[@inline] advance_clock t ~what ~time =
  if time < t.clock.(0) -. 1e-9 then clock_backwards t ~what time;
  t.clock.(0) <- Float.max t.clock.(0) time

let[@inline] record t ~kind ~flow ~seq ~time =
  let cap = Array.length t.ring_kind in
  let p = t.ring_pos in
  t.ring_kind.(p) <- kind;
  t.ring_flow.(p) <- flow;
  t.ring_seq.(p) <- seq;
  t.ring_time.(p) <- time;
  t.ring_pos <- (if p + 1 = cap then 0 else p + 1);
  if t.ring_len < cap then t.ring_len <- t.ring_len + 1;
  t.checked <- t.checked + 1;
  advance_clock t ~what:"event" ~time

let[@inline never] out_of_order t fs ~what now prev =
  fail t "flow %s: %s at %.9f before previous event at %.9f" fs.label what now
    prev

(* ACK, dup-ACK and loss events for a flow arrive in nondecreasing sim
   time. *)
let[@inline] flow_clock t fs ~flow ~what ~now =
  let prev = Array.unsafe_get t.flow_time flow in
  if now < prev -. 1e-9 then out_of_order t fs ~what now prev;
  Array.unsafe_set t.flow_time flow (Float.max prev now)

let[@inline never] accounting_broken t fs =
  let out = fs.sent - fs.acked - fs.lost in
  if out < 0 then
    fail t "flow %s: acked(%d) + lost(%d) exceeds sent(%d)" fs.label fs.acked
      fs.lost fs.sent
  else
    fail t "flow %s: outstanding set has %d entries but counters say %d"
      fs.label
      (Seq_table.length fs.outstanding)
      out

(* In-flight accounting: counters and the outstanding set must agree at
   every step, and no derived quantity may go negative. *)
let[@inline] check_accounting t fs =
  let out = fs.sent - fs.acked - fs.lost in
  if out < 0 || Seq_table.length fs.outstanding <> out then
    accounting_broken t fs

let[@inline never] sent_twice t fs seq =
  fail t "flow %s: seq %d sent twice" fs.label seq

let[@inline never] negative_seq t fs seq =
  fail t "flow %s: negative seq %d" fs.label seq

let[@inline] on_sent t ~flow ~seq ~size ~now =
  record t ~kind:k_sent ~flow ~seq ~time:now;
  let fs = flow_state t flow in
  if seq < 0 then negative_seq t fs seq;
  if Seq_table.mem fs.outstanding seq then sent_twice t fs seq;
  Seq_table.replace fs.outstanding seq size;
  fs.sent <- fs.sent + 1;
  check_accounting t fs

let[@inline never] not_in_flight t fs ~what seq =
  fail t
    "flow %s: %s for seq %d which is not in flight (double delivery or never \
     sent)"
    fs.label what seq

let[@inline never] size_mismatch t fs ~what seq size sz =
  fail t "flow %s: seq %d %s with size %d but sent with %d" fs.label seq what
    size sz

(* Remove [seq] from the outstanding set, checking the size it was sent
   with; [what] names the event, [verb] its past tense. *)
let[@inline] consume t fs ~seq ~size ~what ~verb =
  let i = Seq_table.find_slot fs.outstanding seq in
  if i < 0 then not_in_flight t fs ~what seq;
  let sz = Seq_table.slot_value fs.outstanding i in
  Seq_table.remove_slot fs.outstanding i;
  if sz <> size then size_mismatch t fs ~what:verb seq size sz

let[@inline never] acked_bytes_wrapped t fs =
  fail t "flow %s: acked byte count went backwards" fs.label

let[@inline] on_ack t ~flow ~seq ~size ~now =
  record t ~kind:k_ack ~flow ~seq ~time:now;
  let fs = flow_state t flow in
  flow_clock t fs ~flow ~what:"ACK" ~now;
  consume t fs ~seq ~size ~what:"ACK" ~verb:"acked";
  fs.acked <- fs.acked + 1;
  let prev = fs.acked_bytes in
  fs.acked_bytes <- fs.acked_bytes + size;
  if fs.acked_bytes < prev then acked_bytes_wrapped t fs;
  check_accounting t fs

let[@inline never] dup_in_flight t fs seq =
  fail t "flow %s: dup ACK for seq %d still in flight" fs.label seq

let[@inline] on_dup_ack t ~flow ~seq ~now =
  record t ~kind:k_dup ~flow ~seq ~time:now;
  let fs = flow_state t flow in
  flow_clock t fs ~flow ~what:"dup ACK" ~now;
  (* A duplicate must duplicate a packet that was really delivered: its
     seq is no longer outstanding. *)
  if Seq_table.mem fs.outstanding seq then dup_in_flight t fs seq;
  fs.dups <- fs.dups + 1

let[@inline] on_loss t ~flow ~seq ~size ~now =
  record t ~kind:k_loss ~flow ~seq ~time:now;
  let fs = flow_state t flow in
  flow_clock t fs ~flow ~what:"loss" ~now;
  consume t fs ~seq ~size ~what:"loss" ~verb:"lost";
  fs.lost <- fs.lost + 1;
  check_accounting t fs

(* ---------- per-hop occupancy (multi-hop topologies) ---------- *)

let ensure_link t link =
  if link < 0 then fail t "hop event for negative link id %d" link;
  if link >= Array.length t.hop_entered then begin
    let cap = max (link + 1) (max 4 (2 * Array.length t.hop_entered)) in
    let grow a =
      let n = Array.make cap 0 in
      Array.blit a 0 n 0 (Array.length a);
      n
    in
    t.hop_entered <- grow t.hop_entered;
    t.hop_exited <- grow t.hop_exited;
    t.hop_dropped <- grow t.hop_dropped
  end

let[@inline] hop_clock t ~now =
  t.hop_checked <- t.hop_checked + 1;
  advance_clock t ~what:"hop event" ~time:now

let on_hop_enter t ~link ~now =
  ensure_link t link;
  hop_clock t ~now;
  t.hop_entered.(link) <- t.hop_entered.(link) + 1

let on_hop_exit t ~link ~now =
  ensure_link t link;
  hop_clock t ~now;
  t.hop_exited.(link) <- t.hop_exited.(link) + 1;
  if t.hop_exited.(link) > t.hop_entered.(link) then
    fail t "link %d: %d hop exits but only %d entries (phantom packet)" link
      t.hop_exited.(link)
      t.hop_entered.(link)

let on_hop_drop t ~link ~now =
  ensure_link t link;
  hop_clock t ~now;
  t.hop_dropped.(link) <- t.hop_dropped.(link) + 1

let hop_counters t ~link =
  if link < 0 || link >= Array.length t.hop_entered then (0, 0, 0)
  else (t.hop_entered.(link), t.hop_exited.(link), t.hop_dropped.(link))

let hop_events_checked t = t.hop_checked

(* ---------- fluid byte conservation ---------- *)

let register_fluid t ~link ~totals = t.fluids <- (link, totals) :: t.fluids

let check_fluid t =
  List.iter
    (fun (link, totals) ->
      let bytes_in, bytes_out, shed, backlog = totals () in
      let fin v = Float.is_finite v in
      if not (fin bytes_in && fin bytes_out && fin shed && fin backlog) then
        fail t
          "link %d: fluid byte accounting is not finite (in %g out %g shed %g \
           backlog %g)"
          link bytes_in bytes_out shed backlog;
      if bytes_in < 0.0 || bytes_out < 0.0 || shed < 0.0 || backlog < 0.0 then
        fail t
          "link %d: negative fluid byte accounting (in %g out %g shed %g \
           backlog %g)"
          link bytes_in bytes_out shed backlog;
      let residual = bytes_in -. (bytes_out +. shed +. backlog) in
      if Float.abs residual > 1e-6 *. Float.max 1.0 bytes_in then
        fail t
          "link %d: fluid conservation violated: %.3f bytes in but %.3f out + \
           %.3f shed + %.3f backlog (residual %g)"
          link bytes_in bytes_out shed backlog residual)
    (List.rev t.fluids)

let fluid_links_checked t = List.length t.fluids

let[@inline never] bad_backlog t backlog now =
  if not (Float.is_finite backlog) then
    fail t "backlog is not finite (%g) at %.6f" backlog now
  else fail t "negative backlog %g at %.6f" backlog now

let[@inline] observe_backlog t ~backlog ~now =
  if not (Float.is_finite backlog && backlog >= 0.0) then
    bad_backlog t backlog now

let outstanding t =
  let n = ref 0 in
  for i = 0 to t.n_flows - 1 do
    n := !n + Seq_table.length t.flows.(i).outstanding
  done;
  !n

let events_checked t = t.checked

let assert_quiesced t =
  for i = 0 to t.n_flows - 1 do
    let fs = t.flows.(i) in
    if Seq_table.length fs.outstanding <> 0 then
      fail t
        "flow %s: %d packets neither delivered nor dropped after quiesce \
         (conservation)"
        fs.label
        (Seq_table.length fs.outstanding)
  done;
  for link = 0 to Array.length t.hop_entered - 1 do
    if t.hop_entered.(link) <> t.hop_exited.(link) then
      fail t
        "link %d: %d packets entered the hop but %d exited after quiesce \
         (per-hop conservation)"
        link
        t.hop_entered.(link)
        t.hop_exited.(link)
  done;
  check_fluid t
