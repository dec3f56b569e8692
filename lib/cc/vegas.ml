module Sender = Proteus_net.Sender

type params = { alpha : float; beta : float }

let default = { alpha = 2.0; beta = 4.0 }
let min_cwnd = 2.0

type t = {
  params : params;
  mutable cwnd : float;
  mutable inflight : int;
  mutable base_rtt : float;
  mutable srtt : float;
  mutable slow_start : bool;
  mutable last_adjust : float;
  mutable last_reduction : float;
}

let create ?(params = default) (_env : Sender.env) =
  {
    params;
    cwnd = 10.0;
    inflight = 0;
    base_rtt = infinity;
    srtt = 0.1;
    slow_start = true;
    last_adjust = 0.0;
    last_reduction = neg_infinity;
  }

let name _ = "vegas"
let cwnd_packets t = t.cwnd

let next_send_m t ~meta =
  meta.(3) <- (if float_of_int t.inflight < t.cwnd then meta.(0) else infinity)

let on_sent_m t ~meta:_ ~seq:_ ~size:_ = t.inflight <- t.inflight + 1

let on_ack_m t ~meta ~seq:_ ~size:_ =
  let now = meta.(0) and rtt = meta.(2) in
  t.inflight <- max 0 (t.inflight - 1);
  t.srtt <- (0.875 *. t.srtt) +. (0.125 *. rtt);
  if rtt < t.base_rtt then t.base_rtt <- rtt;
  (* One window adjustment per RTT, on the smoothed estimate. *)
  if now -. t.last_adjust >= t.srtt then begin
    t.last_adjust <- now;
    let diff = t.cwnd *. (1.0 -. (t.base_rtt /. t.srtt)) in
    if t.slow_start then begin
      if diff > t.params.alpha then t.slow_start <- false
      else t.cwnd <- t.cwnd *. 2.0
    end
    else if diff < t.params.alpha then t.cwnd <- t.cwnd +. 1.0
    else if diff > t.params.beta then
      t.cwnd <- Float.max min_cwnd (t.cwnd -. 1.0)
  end

let on_loss_m t ~meta ~seq:_ ~size:_ =
  let now = meta.(0) in
  t.inflight <- max 0 (t.inflight - 1);
  t.slow_start <- false;
  if now -. t.last_reduction > t.srtt then begin
    t.last_reduction <- now;
    t.cwnd <- Float.max min_cwnd (t.cwnd *. 0.75)
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
