module Mean_dev = Proteus_stats.Ewma.Mean_dev
module Regression = Proteus_stats.Regression
module Descriptive = Proteus_stats.Descriptive

type config = {
  regression_tolerance : bool;
  trending_tolerance : bool;
  history : int;
  g1 : float;
  g2 : float;
  fixed_gradient_threshold : float option;
}

let proteus_default =
  {
    regression_tolerance = true;
    trending_tolerance = true;
    history = 6;
    g1 = 2.0;
    g2 = 4.0;
    fixed_gradient_threshold = None;
  }

let vivace_default =
  {
    regression_tolerance = false;
    trending_tolerance = false;
    history = 6;
    g1 = 2.0;
    g2 = 4.0;
    fixed_gradient_threshold = Some 0.01;
  }

let disabled =
  {
    regression_tolerance = false;
    trending_tolerance = false;
    history = 6;
    g1 = 2.0;
    g2 = 4.0;
    fixed_gradient_threshold = None;
  }

type t = {
  config : config;
  (* The most recent [n] (<= history) MIs' mean RTTs and RTT
     deviations, oldest first, in fixed arrays that shift by one per
     MI. [idx] holds the regression abscissae 1 .. history. *)
  avg_rtts : float array;
  deviations : float array;
  idx : float array;
  mutable n : int;
  trend_grad : Mean_dev.t;
  trend_dev : Mean_dev.t;
}

let create config =
  let h = max 0 config.history in
  {
    config;
    avg_rtts = Array.make h 0.0;
    deviations = Array.make h 0.0;
    idx = Array.init h (fun i -> float_of_int (i + 1));
    n = 0;
    trend_grad = Mean_dev.create ();
    trend_dev = Mean_dev.create ();
  }

(* Append [x] as the newest of at most [history] stored values. *)
let push_bounded t a x =
  let h = Array.length a in
  if h > 0 then
    if t.n < h then a.(t.n) <- x
    else begin
      Array.blit a 1 a 0 (h - 1);
      a.(h - 1) <- x
    end

(* Whether [sample] lies [gate] EWMA-deviations from the tracker's
   moving average (one- or two-sided), judged before folding it in. *)
let[@inline] significant tracker sample ~gate ~two_sided =
  let avg = Mean_dev.mean_nan tracker and dev = Mean_dev.deviation_nan tracker in
  let result =
    Mean_dev.n_samples tracker >= 3
    && (not (Float.is_nan avg))
    && (not (Float.is_nan dev))
    &&
    let delta = if two_sided then Float.abs (sample -. avg) else sample -. avg in
    delta >= gate *. dev
  in
  Mean_dev.update tracker sample;
  result

(* Returns (trending_gradient significant, trending_deviation
   significant) for the MI just folded in. Until the EWMA trackers have
   seen enough samples the trend is treated as insignificant, deferring
   to the per-MI gate. *)
let update_trending t (m : Mi.metrics) =
  push_bounded t t.avg_rtts m.Mi.avg_rtt;
  push_bounded t t.deviations m.Mi.rtt_deviation;
  t.n <- min (t.n + 1) (Array.length t.avg_rtts);
  if t.n < 2 then (false, false)
  else begin
    let trending_gradient =
      (Regression.fit_prefix ~x:t.idx ~y:t.avg_rtts ~n:t.n).Regression.slope
    in
    let trending_deviation = Descriptive.stddev_prefix t.deviations ~n:t.n in
    let grad_sig =
      significant t.trend_grad trending_gradient ~gate:t.config.g1
        ~two_sided:true
    in
    let dev_sig =
      significant t.trend_dev trending_deviation ~gate:t.config.g2
        ~two_sided:false
    in
    (grad_sig, dev_sig)
  end

let adjust t (m : Mi.metrics) =
  let m =
    match t.config.fixed_gradient_threshold with
    | Some threshold when Float.abs m.Mi.rtt_gradient < threshold ->
        { m with Mi.rtt_gradient = 0.0 }
    | _ -> m
  in
  let grad_sig, dev_sig =
    if t.config.trending_tolerance then update_trending t m
    else (false, false)
  in
  if not t.config.regression_tolerance then m
  else if Float.abs m.Mi.rtt_gradient < m.Mi.regression_error then begin
    (* Statistically indistinguishable from noise, unless the longer
       trend vetoes. *)
    let zero_grad = not grad_sig in
    let zero_dev = zero_grad && not dev_sig in
    {
      m with
      Mi.rtt_gradient = (if zero_grad then 0.0 else m.Mi.rtt_gradient);
      Mi.rtt_deviation = (if zero_dev then 0.0 else m.Mi.rtt_deviation);
    }
  end
  else m
