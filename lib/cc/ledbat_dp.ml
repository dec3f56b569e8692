(* LEDBAT re-expressed as a datapath fold program + control handler,
   byte-identical to the monolithic Ledbat. The rolling delay filters —
   RFC 6817's one-minute base-delay buckets and the 4-sample current
   filter — become fixed register banks (newest at index 0, a shift
   replaces the list prepend, live counts bound the minimum folds); the
   loss halving runs in the control handler behind an On_loss report.
   Lowered through Datapath.to_factory. *)

module Dp = Proteus.Datapath

type params = { target_ms : float; gain : float }

let default = { target_ms = 100.0; gain = 1.0 }
let draft_25ms = { target_ms = 25.0; gain = 1.0 }
let min_cwnd = 2.0
let base_history = 10
let current_filter = 4

(* Register layout. *)
let r_cwnd = 0
let r_srtt = 1
let r_last_red = 2
let r_bucket_started = 3
let r_nbase = 4 (* live bucket count, integral float *)
let r_base0 = 5 (* base0..base9: newest bucket first *)
let r_nrecent = 15 (* live current-filter count *)
let r_recent0 = 16 (* recent0..recent3: newest sample first *)
let r_target = 20 (* const: queueing target, seconds *)
let r_gain = 21 (* const *)
let r_mtu = 22 (* const: packet size, bytes (from env) *)

let register_names =
  [ "cwnd"; "srtt"; "last_reduction"; "bucket_started"; "nbase" ]
  @ List.init base_history (Printf.sprintf "base%d")
  @ [ "nrecent" ]
  @ List.init current_filter (Printf.sprintf "recent%d")
  @ [ "target"; "gain"; "mtu" ]

let i_rtt = Dp.signal_index Dp.Rtt_sample
let i_now = Dp.signal_index Dp.Now
let i_bytes = Dp.signal_index Dp.Bytes_acked

(* Mirrors Ledbat.on_ack_m minus the inflight bookkeeping. The minimum
   folds walk the banks newest-first with an [infinity] seed — the same
   order and the same Float.min chain as the monolithic
   [List.fold_left Float.min infinity]. *)
let on_ack regs sigs =
  let rtt = sigs.(i_rtt) in
  let now = sigs.(i_now) in
  regs.(r_srtt) <- (0.875 *. regs.(r_srtt)) +. (0.125 *. rtt);
  (* update_base: rotate a fresh one-minute bucket in, or fold the
     sample into the current (newest) bucket. *)
  if now -. regs.(r_bucket_started) >= 60.0 then begin
    regs.(r_bucket_started) <- now;
    for i = base_history - 1 downto 1 do
      regs.(r_base0 + i) <- regs.(r_base0 + i - 1)
    done;
    regs.(r_base0) <- rtt;
    if regs.(r_nbase) < float_of_int base_history then
      regs.(r_nbase) <- regs.(r_nbase) +. 1.0
  end
  else regs.(r_base0) <- Float.min regs.(r_base0) rtt;
  (* current filter: prepend, truncated to the newest 4. *)
  for i = current_filter - 1 downto 1 do
    regs.(r_recent0 + i) <- regs.(r_recent0 + i - 1)
  done;
  regs.(r_recent0) <- rtt;
  if regs.(r_nrecent) < float_of_int current_filter then
    regs.(r_nrecent) <- regs.(r_nrecent) +. 1.0;
  let base = ref infinity in
  for i = 0 to int_of_float regs.(r_nbase) - 1 do
    base := Float.min !base regs.(r_base0 + i)
  done;
  let cur = ref infinity in
  for i = 0 to int_of_float regs.(r_nrecent) - 1 do
    cur := Float.min !cur regs.(r_recent0 + i)
  done;
  let queuing = Float.max 0.0 (!cur -. !base) in
  let off_target = (regs.(r_target) -. queuing) /. regs.(r_target) in
  let bytes = sigs.(i_bytes) in
  let increment =
    regs.(r_gain) *. off_target *. bytes /. (regs.(r_cwnd) *. regs.(r_mtu))
  in
  let increment = Float.max increment (-1.0) in
  regs.(r_cwnd) <- Float.max min_cwnd (regs.(r_cwnd) +. increment)

let on_loss _regs _sigs = ()

let program ?(params = default) (env : Proteus_net.Sender.env) =
  let regs = Array.make 23 (Dp.reg "x" 0.0) in
  regs.(r_cwnd) <- Dp.reg "cwnd" min_cwnd;
  regs.(r_srtt) <- Dp.reg "srtt" 0.1;
  regs.(r_last_red) <- Dp.reg "last_reduction" neg_infinity;
  regs.(r_bucket_started) <- Dp.reg "bucket_started" 0.0;
  regs.(r_nbase) <- Dp.reg "nbase" 1.0;
  for i = 0 to base_history - 1 do
    regs.(r_base0 + i) <-
      Dp.reg (Printf.sprintf "base%d" i) (if i = 0 then infinity else 0.0)
  done;
  regs.(r_nrecent) <- Dp.reg "nrecent" 0.0;
  for i = 0 to current_filter - 1 do
    regs.(r_recent0 + i) <- Dp.reg (Printf.sprintf "recent%d" i) 0.0
  done;
  regs.(r_target) <- Dp.reg "target" (Proteus_net.Units.ms params.target_ms);
  regs.(r_gain) <- Dp.reg "gain" params.gain;
  regs.(r_mtu) <- Dp.reg "mtu" (float_of_int env.mtu);
  {
    Dp.p_name = "ledbat-dp";
    p_regs = regs;
    p_cwnd = r_cwnd;
    p_on_ack = on_ack;
    p_on_loss = on_loss;
    p_triggers = [| Dp.On_loss |];
  }

let handler (rep : Dp.report) (act : Dp.actions) =
  match rep.Dp.rp_cause with
  | Dp.Loss_event ->
      let regs = rep.Dp.rp_regs in
      let now = rep.Dp.rp_time in
      if now -. regs.(r_last_red) > regs.(r_srtt) then begin
        regs.(r_last_red) <- now;
        regs.(r_cwnd) <- Float.max min_cwnd (regs.(r_cwnd) /. 2.0);
        act.Dp.a_cwnd <- regs.(r_cwnd)
      end
  | Dp.Interval | Dp.Predicate -> ()

let factory ?params ?interval ?consts () : Proteus_net.Sender.factory =
  Dp.to_factory
    ~program:(fun env -> Dp.with_overrides ?interval ?consts (program ?params env))
    ~handler:(fun _env _prog -> handler)
