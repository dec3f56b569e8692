module Sender = Proteus_net.Sender

type params = { target_ms : float; gain : float }

let default = { target_ms = 100.0; gain = 1.0 }
let draft_25ms = { target_ms = 25.0; gain = 1.0 }
let min_cwnd = 2.0
let base_history = 10 (* one-minute buckets, RFC 6817 *)
let current_filter = 4 (* current delay = min of last 4 samples *)

type t = {
  mtu : int;
  target : float;
  gain : float;
  mutable cwnd : float; (* packets *)
  mutable inflight : int;
  (* Rolling minima of delay per one-minute bucket. *)
  mutable base_buckets : float list;
  mutable bucket_started : float;
  mutable recent : float list; (* last [current_filter] delay samples *)
  mutable srtt : float;
  mutable last_reduction : float;
}

let create ?(params = default) (env : Sender.env) =
  {
    mtu = env.mtu;
    target = Proteus_net.Units.ms params.target_ms;
    gain = params.gain;
    cwnd = min_cwnd;
    inflight = 0;
    base_buckets = [ infinity ];
    bucket_started = 0.0;
    recent = [];
    srtt = 0.1;
    last_reduction = neg_infinity;
  }

let name t =
  Printf.sprintf "ledbat-%g" (Proteus_net.Units.sec_to_ms t.target)
let cwnd_packets t = t.cwnd
let base_delay t = List.fold_left Float.min infinity t.base_buckets

let next_send_m t ~meta =
  meta.(3) <- (if float_of_int t.inflight < t.cwnd then meta.(0) else infinity)

let on_sent_m t ~meta:_ ~seq:_ ~size:_ = t.inflight <- t.inflight + 1

let update_base t ~now delay =
  if now -. t.bucket_started >= 60.0 then begin
    t.bucket_started <- now;
    t.base_buckets <- delay :: t.base_buckets;
    if List.length t.base_buckets > base_history then
      t.base_buckets <-
        List.filteri (fun i _ -> i < base_history) t.base_buckets
  end
  else
    match t.base_buckets with
    | cur :: rest -> t.base_buckets <- Float.min cur delay :: rest
    | [] -> t.base_buckets <- [ delay ]

let current_delay t = List.fold_left Float.min infinity t.recent

let on_ack_m t ~meta ~seq:_ ~size =
  let now = meta.(0) and rtt = meta.(2) in
  t.inflight <- max 0 (t.inflight - 1);
  t.srtt <- (0.875 *. t.srtt) +. (0.125 *. rtt);
  (* RFC 6817 uses one-way delay; the reverse path is uncongested in the
     simulator, so the RTT carries exactly the forward queueing delay. *)
  update_base t ~now rtt;
  t.recent <- rtt :: (if List.length t.recent >= current_filter then
                        List.filteri (fun i _ -> i < current_filter - 1) t.recent
                      else t.recent);
  let queuing = Float.max 0.0 (current_delay t -. base_delay t) in
  let off_target = (t.target -. queuing) /. t.target in
  let bytes = float_of_int size in
  let increment =
    t.gain *. off_target *. bytes /. (t.cwnd *. float_of_int t.mtu)
  in
  (* RFC: allowed_increase caps ramp-up to one packet per RTT per cwnd
     of acked data; the proportional controller above already respects
     that for gain <= 1. Decrease is clamped so one bad sample cannot
     collapse the window. *)
  let increment = Float.max increment (-1.0) in
  t.cwnd <- Float.max min_cwnd (t.cwnd +. increment)

let on_loss_m t ~meta ~seq:_ ~size:_ =
  let now = meta.(0) in
  t.inflight <- max 0 (t.inflight - 1);
  if now -. t.last_reduction > t.srtt then begin
    t.last_reduction <- now;
    t.cwnd <- Float.max min_cwnd (t.cwnd /. 2.0)
  end

let factory ?params () : Proteus_net.Sender.factory =
 fun env ->
  Sender.pack_meta (module struct
    type nonrec t = t

    let name = name
    let next_send_m = next_send_m
    let on_sent_m = on_sent_m
    let on_ack_m = on_ack_m
    let on_loss_m = on_loss_m
  end) (create ?params env)
