(* Sender timing shim: an unboxed-protocol sender that forwards every
   call to the wrapped [Sender.packed] and accumulates, per protocol,
   the host time spent inside each entry point (bechamel's monotonic
   clock) and the minor words allocated by the ACK handler.

   Accumulators live in int and float arrays so that recording a call
   allocates nothing: the shim must not perturb the allocation counts
   it sits next to. The fixed cost of an empty shim (two clock reads
   and the forwarding call) is measured by {!calibrate}: the part inside
   the timed window is subtracted by {!cc_ns}, and all of it is given by
   {!overhead_ns}. *)

module Sender = Proteus_net.Sender

let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Slots of [ns] and [calls]. *)
let ack = 0
let loss = 1
let sent = 2
let poll = 3

type probe = {
  ns : int array;  (** host ns inside each entry point *)
  calls : int array;  (** calls of each entry point *)
  ack_words : float array;  (** [|minor words allocated in on_ack|] *)
}

let probe () =
  { ns = Array.make 4 0; calls = Array.make 4 0; ack_words = [| 0.0 |] }

module M = struct
  type t = { inner : Sender.packed; p : probe }

  let name t = Sender.name t.inner
  let next_send t ~now = Sender.next_send t.inner ~now
  let on_sent t ~now ~seq ~size = Sender.on_sent t.inner ~now ~seq ~size

  let on_ack t ~now ~seq ~send_time ~size ~rtt =
    Sender.on_ack t.inner ~now ~seq ~send_time ~size ~rtt

  let on_loss t ~now ~seq ~send_time ~size =
    Sender.on_loss t.inner ~now ~seq ~send_time ~size

  let[@inline] record p slot c0 =
    let c1 = now_ns () in
    p.ns.(slot) <- p.ns.(slot) + (c1 - c0);
    p.calls.(slot) <- p.calls.(slot) + 1

  let next_send_m t ~meta =
    let c0 = now_ns () in
    Sender.next_send_m t.inner ~meta;
    record t.p poll c0

  let on_sent_m t ~meta ~seq ~size =
    let c0 = now_ns () in
    Sender.on_sent_m t.inner ~meta ~seq ~size;
    record t.p sent c0

  let on_ack_m t ~meta ~seq ~size =
    let w0 = Gc.minor_words () in
    let c0 = now_ns () in
    Sender.on_ack_m t.inner ~meta ~seq ~size;
    record t.p ack c0;
    let w1 = Gc.minor_words () in
    t.p.ack_words.(0) <- t.p.ack_words.(0) +. (w1 -. w0)

  let on_loss_m t ~meta ~seq ~size =
    let c0 = now_ns () in
    Sender.on_loss_m t.inner ~meta ~seq ~size;
    record t.p loss c0
end

let wrap p (factory : Sender.factory) : Sender.factory =
 fun env -> Sender.pack_meta (module M) { M.inner = factory env; p }

(* ---------- calibration ---------- *)

(* A sender that does nothing: timing it through the shim leaves only
   the shim's own cost. *)
module Null = struct
  type t = unit

  let name () = "null"
  let next_send () ~now = now
  let on_sent () ~now:_ ~seq:_ ~size:_ = ()
  let on_ack () ~now:_ ~seq:_ ~send_time:_ ~size:_ ~rtt:_ = ()
  let on_loss () ~now:_ ~seq:_ ~send_time:_ ~size:_ = ()
  let next_send_m () ~meta = meta.(3) <- meta.(0)
  let on_sent_m () ~meta:_ ~seq:_ ~size:_ = ()
  let on_ack_m () ~meta:_ ~seq:_ ~size:_ = ()
  let on_loss_m () ~meta:_ ~seq:_ ~size:_ = ()
end

type overhead = {
  o_ns : float array;  (** per call, by slot: shim time inside the probe's window *)
  o_full : float array;  (** per call, by slot: all the time the shim adds *)
  o_words : float;
}

(* [n] calls of [slot] on [s]; host ns per call. *)
let time_calls s slot n =
  let meta = Array.make 6 0.0 in
  let c0 = now_ns () in
  for i = 1 to n do
    if slot = ack then Sender.on_ack_m s ~meta ~seq:i ~size:1500
    else if slot = loss then Sender.on_loss_m s ~meta ~seq:i ~size:1500
    else if slot = sent then Sender.on_sent_m s ~meta ~seq:i ~size:1500
    else Sender.next_send_m s ~meta
  done;
  float_of_int (now_ns () - c0) /. float_of_int n

(* Medians of [rounds] measurements of [n] calls of each entry point,
   through an empty shim and on the bare empty sender. *)
let calibrate ?(rounds = 7) ?(n = 100_000) () =
  let env = Sender.make_env ~rng:(Proteus_stats.Rng.create ~seed:1) ~mtu:1500 () in
  let null _ = Sender.pack_meta (module Null) () in
  let one () =
    let p = probe () in
    let s = (wrap p null) env and bare = null env in
    let full =
      Array.init 4 (fun slot -> time_calls s slot n -. time_calls bare slot n)
    in
    (p, full)
  in
  let rs = List.init rounds (fun _ -> one ()) in
  let med f = Stat.median (List.map f rs) in
  let o_ns = Array.init 4 (fun slot -> med (fun (p, _) -> float_of_int p.ns.(slot) /. float_of_int n)) in
  {
    o_ns;
    (* The window is part of what the shim adds. *)
    o_full = Array.init 4 (fun slot -> Float.max o_ns.(slot) (med (fun (_, f) -> f.(slot))));
    o_words = med (fun (p, _) -> p.ack_words.(0) /. float_of_int n);
  }

(* Controller time in a probe with the empty-shim cost removed. *)
let slot_ns o p slot =
  Float.max 0.0
    (float_of_int p.ns.(slot) -. (o.o_ns.(slot) *. float_of_int p.calls.(slot)))

let cc_ns o p = slot_ns o p ack +. slot_ns o p loss +. slot_ns o p sent +. slot_ns o p poll

(* Host time the shim itself added to the run that carried it. *)
let overhead_ns o p =
  let s = ref 0.0 in
  Array.iteri (fun slot c -> s := !s +. (o.o_full.(slot) *. float_of_int c)) p.calls;
  !s

let ack_words o p =
  Float.max 0.0 (p.ack_words.(0) -. (o.o_words *. float_of_int p.calls.(ack)))
