module Sender = Proteus_net.Sender

let beta = 0.7
let c = 0.4
let initial_cwnd = 10.0
let min_cwnd = 2.0

(* All-float record: gets the flat (unboxed-field) representation, so
   the per-ACK updates store in place without boxing. [inflight] is a
   packet count held as an integral float; [epoch_start] uses NaN for
   "no epoch in progress". *)
type t = {
  mutable cwnd : float; (* packets *)
  mutable ssthresh : float;
  mutable inflight : float; (* packets *)
  mutable w_max : float;
  mutable epoch_start : float; (* NaN = none *)
  mutable k : float;
  mutable srtt : float;
  mutable last_reduction : float;
}

let create (_ : Sender.env) =
  {
    cwnd = initial_cwnd;
    ssthresh = infinity;
    inflight = 0.0;
    w_max = 0.0;
    epoch_start = Float.nan;
    k = 0.0;
    srtt = 0.1;
    last_reduction = neg_infinity;
  }

let name _ = "cubic"
let cwnd_packets t = t.cwnd

let next_send_m t ~meta =
  meta.(3) <- (if t.inflight < t.cwnd then meta.(0) else infinity)

let on_sent_m t ~meta:_ ~seq:_ ~size:_ = t.inflight <- t.inflight +. 1.0

let[@inline] update_srtt t rtt =
  t.srtt <- (0.875 *. t.srtt) +. (0.125 *. rtt)

(* W_cubic(t) = C (t - K)^3 + W_max, with the TCP-friendly lower bound. *)
let[@inline] cubic_target t ~elapsed =
  let w_cubic = (c *. ((elapsed -. t.k) ** 3.0)) +. t.w_max in
  let w_est =
    (t.w_max *. beta)
    +. (3.0 *. (1.0 -. beta) /. (1.0 +. beta) *. (elapsed /. t.srtt))
  in
  Float.max w_cubic w_est

let on_ack_m t ~meta ~seq:_ ~size:_ =
  let now = meta.(0) in
  t.inflight <- Float.max 0.0 (t.inflight -. 1.0);
  update_srtt t meta.(2);
  if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. 1.0
  else begin
    let epoch =
      if not (Float.is_nan t.epoch_start) then t.epoch_start
      else begin
        t.epoch_start <- now;
        if t.w_max <= t.cwnd then begin
          t.w_max <- t.cwnd;
          t.k <- 0.0
        end
        else t.k <- Float.cbrt (t.w_max *. (1.0 -. beta) /. c);
        now
      end
    in
    let target = cubic_target t ~elapsed:(now -. epoch +. t.srtt) in
    if target > t.cwnd then t.cwnd <- t.cwnd +. ((target -. t.cwnd) /. t.cwnd)
    else t.cwnd <- t.cwnd +. (0.01 /. t.cwnd)
  end

let on_loss_m t ~meta ~seq:_ ~size:_ =
  let now = meta.(0) in
  t.inflight <- Float.max 0.0 (t.inflight -. 1.0);
  (* One multiplicative decrease per RTT: later losses of the same
     window event are absorbed. *)
  if now -. t.last_reduction > t.srtt then begin
    t.last_reduction <- now;
    (* Fast convergence: release bandwidth faster when W_max shrinks. *)
    if t.cwnd < t.w_max then t.w_max <- t.cwnd *. (2.0 -. beta) /. 2.0
    else t.w_max <- t.cwnd;
    t.cwnd <- Float.max min_cwnd (t.cwnd *. beta);
    t.ssthresh <- Float.max min_cwnd t.cwnd;
    t.epoch_start <- Float.nan
  end

let factory () : Proteus_net.Sender.factory =
 fun env ->
  Sender.pack_meta (module struct
    type nonrec t = t

    let name = name
    let next_send_m = next_send_m
    let on_sent_m = on_sent_m
    let on_ack_m = on_ack_m
    let on_loss_m = on_loss_m
  end) (create env)
