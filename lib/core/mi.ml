module Fvec = Proteus_stats.Fvec
module Descriptive = Proteus_stats.Descriptive
module Regression = Proteus_stats.Regression

type metrics = {
  send_rate_mbps : float;
  target_rate_mbps : float;
  loss_rate : float;
  avg_rtt : float;
  rtt_gradient : float;
  rtt_deviation : float;
  regression_error : float;
  n_rtt_samples : int;
  duration : float;
}

type t = {
  mutable id : int;
  mutable target_rate : float; (* bytes/sec *)
  mutable start_time : float;
  mutable end_time : float;
  mutable sent : int;
  mutable sent_bytes : int;
  mutable acked : int;
  mutable lost : int;
  send_times : Fvec.t;
  rtts : Fvec.t;
  mutable closed : bool;
}

let create ~id ~target_rate ~start_time =
  {
    id;
    target_rate;
    start_time;
    end_time = start_time;
    sent = 0;
    sent_bytes = 0;
    acked = 0;
    lost = 0;
    send_times = Fvec.create ~capacity:32 ();
    rtts = Fvec.create ~capacity:32 ();
    closed = false;
  }

let reset t ~id ~target_rate ~start_time =
  t.id <- id;
  t.target_rate <- target_rate;
  t.start_time <- start_time;
  t.end_time <- start_time;
  t.sent <- 0;
  t.sent_bytes <- 0;
  t.acked <- 0;
  t.lost <- 0;
  Fvec.clear t.send_times;
  Fvec.clear t.rtts;
  t.closed <- false

let id t = t.id
let target_rate t = t.target_rate
let start_time t = t.start_time

let[@inline] record_sent t ~size =
  t.sent <- t.sent + 1;
  t.sent_bytes <- t.sent_bytes + size

let[@inline] record_ack_sample t ~send_time ~rtt =
  t.acked <- t.acked + 1;
  if not (Float.is_nan rtt) then begin
    Fvec.push t.send_times send_time;
    Fvec.push t.rtts rtt
  end

let record_ack t ~send_time ~rtt =
  record_ack_sample t ~send_time
    ~rtt:(match rtt with Some r -> r | None -> Float.nan)

let record_loss t = t.lost <- t.lost + 1

let close t ~end_time =
  t.closed <- true;
  t.end_time <- Float.max end_time (t.start_time +. 1e-6)

let is_closed t = t.closed
let is_complete t = t.closed && t.acked + t.lost >= t.sent
let packets_sent t = t.sent

let metrics t =
  if not (is_complete t) then invalid_arg "Mi.metrics: MI not complete";
  let duration = t.end_time -. t.start_time in
  let send_rate_bytes = float_of_int t.sent_bytes /. duration in
  let n = Fvec.length t.rtts in
  let avg_rtt, rtt_gradient, rtt_deviation, regression_error =
    if n < 2 then
      ((if n = 1 then Fvec.get t.rtts 0 else 0.0), 0.0, 0.0, 0.0)
    else begin
      (* In place over the sample buffers, which a recycled MI may hold
         stale entries past [n] in. *)
      let x = Fvec.unsafe_data t.send_times in
      let y = Fvec.unsafe_data t.rtts in
      let fit = Regression.fit_prefix ~x ~y ~n in
      ( Descriptive.mean_prefix y ~n,
        fit.Regression.slope,
        Descriptive.stddev_prefix y ~n,
        fit.Regression.residual_rms /. duration )
    end
  in
  {
    send_rate_mbps = Proteus_net.Units.bytes_per_sec_to_mbps send_rate_bytes;
    target_rate_mbps = Proteus_net.Units.bytes_per_sec_to_mbps t.target_rate;
    loss_rate =
      (if t.sent = 0 then 0.0 else float_of_int t.lost /. float_of_int t.sent);
    avg_rtt;
    rtt_gradient;
    rtt_deviation;
    regression_error;
    n_rtt_samples = n;
    duration;
  }
