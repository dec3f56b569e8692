type env = {
  rng : Proteus_stats.Rng.t;
  mtu : int;
  trace : Proteus_obs.Trace.t;
  hops : int;
  flow : int;
}

let make_env ?(trace = Proteus_obs.Trace.disabled) ?(hops = 1) ~rng ~mtu () =
  if hops < 1 then invalid_arg "Sender.make_env: hops must be at least 1";
  { rng; mtu; trace; hops; flow = -1 }

(* One call protocol. Calls through a first-class module box every
   float argument and result (no flambda), so the entry points carry
   floats in a caller-owned scratch array — [meta] — whose reads and
   writes are unboxed float-array accesses:

     meta.(0) = now        (input to every call)
     meta.(1) = send_time  (input to on_ack_m / on_loss_m)
     meta.(2) = rtt        (input to on_ack_m)
     meta.(3) = next-send time (output of next_send_m)
     meta.(4) = in-flight packets   (optional runner-supplied signal)
     meta.(5) = delivered bytes     (optional runner-supplied signal)

   Slots 4 and 5 exist only when the caller provides them (the Runner
   does; the convenience calls below pass 4 slots) — senders that read
   them must guard on [Array.length meta] and fall back to their own
   estimates (see [Proteus.Datapath]). *)
module type S = sig
  type t

  val name : t -> string
  val next_send_m : t -> meta:float array -> unit
  val on_sent_m : t -> meta:float array -> seq:int -> size:int -> unit
  val on_ack_m : t -> meta:float array -> seq:int -> size:int -> unit
  val on_loss_m : t -> meta:float array -> seq:int -> size:int -> unit
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed

let pack_meta (type a) (module M : S with type t = a) (v : a) =
  Packed ((module M), v)

let name (Packed ((module M), v)) = M.name v

let[@inline] next_send_m (Packed ((module M), v)) ~meta = M.next_send_m v ~meta

let[@inline] on_sent_m (Packed ((module M), v)) ~meta ~seq ~size =
  M.on_sent_m v ~meta ~seq ~size

let[@inline] on_ack_m (Packed ((module M), v)) ~meta ~seq ~size =
  M.on_ack_m v ~meta ~seq ~size

let[@inline] on_loss_m (Packed ((module M), v)) ~meta ~seq ~size =
  M.on_loss_m v ~meta ~seq ~size

(* Convenience calls for tests and tools: a fresh 4-slot scratch per
   call, so they allocate and carry no runner-supplied signals. *)
let next_send s ~now =
  let meta = [| now; 0.0; 0.0; 0.0 |] in
  next_send_m s ~meta;
  meta.(3)

let on_sent s ~now ~seq ~size = on_sent_m s ~meta:[| now; 0.0; 0.0; 0.0 |] ~seq ~size

let on_ack s ~now ~seq ~send_time ~size ~rtt =
  on_ack_m s ~meta:[| now; send_time; rtt; 0.0 |] ~seq ~size

let on_loss s ~now ~seq ~send_time ~size =
  on_loss_m s ~meta:[| now; send_time; 0.0; 0.0 |] ~seq ~size

type factory = env -> packed
