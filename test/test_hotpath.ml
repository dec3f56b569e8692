(* The allocation-free audited packet path: the sequence-number table
   shared by the Proteus controller and the auditor, checked against a
   Hashtbl model; the auditor's verdicts against the same model; the
   in-place MI statistics against the fold-based formulas they replace;
   and Gc guards on the three per-packet layers (auditor, Proteus MI
   bookkeeping, Wi-Fi ACK noise).

   The Gc guards run in the dev profile, where every module is compiled
   with -opaque: nothing is inlined across modules, so each float that
   crosses a module boundary (an argument, a result) is boxed, two
   words. Each guard states the boxing it tolerates on that account; an
   optimised build inlines those calls and allocates less. *)

open Proteus_net
module Rng = Proteus_stats.Rng
module Descriptive = Proteus_stats.Descriptive
module Regression = Proteus_stats.Regression
module Mi = Proteus.Mi
module Controller = Proteus.Controller

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Sequence numbers that collide often under small power-of-two masks
   (multiples of 64 and of 1000 next to dense ones), forcing the table
   to double. *)
let gen_seq =
  QCheck.Gen.(
    oneof
      [
        int_bound 63;
        map (fun k -> 64 * k) (int_bound 63);
        map (fun k -> 1000 * k) (int_bound 15);
      ])

(* ---------- Seq_table vs Hashtbl ---------- *)

type table_op = Put of int * int | Del of int | Get of int

let gen_table_op =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun k v -> Put (k, v)) gen_seq (int_bound 1_000_000));
        (2, map (fun k -> Del k) gen_seq);
        (2, map (fun k -> Get k) gen_seq);
      ])

let print_table_op = function
  | Put (k, v) -> Printf.sprintf "put %d %d" k v
  | Del k -> Printf.sprintf "del %d" k
  | Get k -> Printf.sprintf "get %d" k

let prop_seq_table =
  QCheck.Test.make ~count:300 ~name:"seq table matches a Hashtbl model"
    QCheck.(
      make ~print:Print.(list print_table_op) Gen.(list_size (0 -- 400) gen_table_op))
    (fun ops ->
      let t = Seq_table.create ~capacity:4 (-1) in
      let model = Hashtbl.create 16 in
      List.iter
        (fun op ->
          (match op with
          | Put (k, v) ->
              Seq_table.replace t k v;
              Hashtbl.replace model k v
          | Del k ->
              let i = Seq_table.find_slot t k in
              if (i >= 0) <> Hashtbl.mem model k then
                QCheck.Test.fail_reportf "del %d: presence differs" k;
              if i >= 0 then Seq_table.remove_slot t i;
              Hashtbl.remove model k
          | Get k -> (
              let i = Seq_table.find_slot t k in
              match Hashtbl.find_opt model k with
              | None ->
                  if i >= 0 then QCheck.Test.fail_reportf "get %d: present" k
              | Some v ->
                  if i < 0 || Seq_table.slot_value t i <> v then
                    QCheck.Test.fail_reportf "get %d: expected %d" k v));
          if Seq_table.length t <> Hashtbl.length model then
            QCheck.Test.fail_reportf "length %d, model %d" (Seq_table.length t)
              (Hashtbl.length model))
        ops;
      Hashtbl.iter
        (fun k v ->
          let i = Seq_table.find_slot t k in
          if i < 0 || Seq_table.slot_value t i <> v then
            QCheck.Test.fail_reportf "final: key %d lost" k)
        model;
      true)

let test_seq_table_rejects_negative () =
  let t = Seq_table.create 0 in
  Alcotest.(check int) "absent" (-1) (Seq_table.find_slot t (-1));
  match Seq_table.replace t (-1) 5 with
  | () -> Alcotest.fail "negative key accepted"
  | exception Invalid_argument _ -> ()

(* ---------- the auditor vs a Hashtbl model ---------- *)

type audit_op =
  | Send of int * int (* flow, seq *)
  | Ack of int * int
  | Lose of int * int
  | Dup of int * int

let gen_audit_op =
  QCheck.Gen.(
    let fs = map2 (fun f s -> (f, s)) (int_bound 1) gen_seq in
    frequency
      [
        (4, map (fun (f, s) -> Send (f, s)) fs);
        (3, map (fun (f, s) -> Ack (f, s)) fs);
        (2, map (fun (f, s) -> Lose (f, s)) fs);
        (1, map (fun (f, s) -> Dup (f, s)) fs);
      ])

let print_audit_op = function
  | Send (f, s) -> Printf.sprintf "send %d/%d" f s
  | Ack (f, s) -> Printf.sprintf "ack %d/%d" f s
  | Lose (f, s) -> Printf.sprintf "loss %d/%d" f s
  | Dup (f, s) -> Printf.sprintf "dup %d/%d" f s

(* Replays [ops] on a fresh auditor and on per-flow Hashtbl models up to
   the first event the model says is a violation; that event must raise
   [Violation] with the auditor's message for it, and every event before
   it must pass with the outstanding counts in agreement. *)
let prop_audit =
  QCheck.Test.make ~count:300 ~name:"auditor matches a Hashtbl model"
    QCheck.(
      make ~print:Print.(list print_audit_op) Gen.(list_size (0 -- 300) gen_audit_op))
    (fun ops ->
      let a = Audit.create () in
      let labels = [| "f0"; "f1" |] in
      let ids = Array.map (fun label -> Audit.register_flow a ~label) labels in
      let models = Array.init 2 (fun _ -> Hashtbl.create 16) in
      let size_of seq = 40 + (seq mod 1460) in
      let expect_violation what msg f =
        match f () with
        | () -> QCheck.Test.fail_reportf "%s: no violation (want %S)" what msg
        | exception Audit.Violation m ->
            if not (contains m msg) then
              QCheck.Test.fail_reportf "%s: message %S lacks %S" what m msg
      in
      let rec go i = function
        | [] ->
            let left = Hashtbl.length models.(0) + Hashtbl.length models.(1) in
            if left = 0 then Audit.assert_quiesced a
            else
              expect_violation "quiesce" "neither delivered nor dropped"
                (fun () -> Audit.assert_quiesced a);
            true
        | op :: rest -> (
            let now = 0.001 *. float_of_int i in
            let flow, seq =
              match op with Send (f, s) | Ack (f, s) | Lose (f, s) | Dup (f, s) -> (f, s)
            in
            let m = models.(flow) and label = labels.(flow) and id = ids.(flow) in
            let size = size_of seq in
            let violation =
              match op with
              | Send _ when Hashtbl.mem m seq ->
                  Some (Printf.sprintf "flow %s: seq %d sent twice" label seq)
              | (Ack _ | Lose _) when not (Hashtbl.mem m seq) ->
                  Some
                    (Printf.sprintf
                       "flow %s: %s for seq %d which is not in flight (double \
                        delivery or never sent)"
                       label
                       (match op with Ack _ -> "ACK" | _ -> "loss")
                       seq)
              | Dup _ when Hashtbl.mem m seq ->
                  Some
                    (Printf.sprintf "flow %s: dup ACK for seq %d still in flight"
                       label seq)
              | _ -> None
            in
            let apply () =
              match op with
              | Send _ -> Audit.on_sent a ~flow:id ~seq ~size ~now
              | Ack _ -> Audit.on_ack a ~flow:id ~seq ~size ~now
              | Lose _ -> Audit.on_loss a ~flow:id ~seq ~size ~now
              | Dup _ -> Audit.on_dup_ack a ~flow:id ~seq ~now
            in
            match violation with
            | Some msg ->
                expect_violation (print_audit_op op) msg apply;
                true
            | None ->
                apply ();
                (match op with
                | Send _ -> Hashtbl.replace m seq ()
                | Ack _ | Lose _ -> Hashtbl.remove m seq
                | Dup _ -> ());
                let want = Hashtbl.length models.(0) + Hashtbl.length models.(1) in
                if Audit.outstanding a <> want then
                  QCheck.Test.fail_reportf "after %s: outstanding %d, model %d"
                    (print_audit_op op) (Audit.outstanding a) want;
                go (i + 1) rest)
      in
      go 0 ops)

(* ---------- in-place MI statistics ---------- *)

(* The fold-based formulas [Mi.metrics] used before it computed in
   place (copies of the arrays, boxed fold accumulators): the bit-level
   reference. *)
let ref_mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let ref_stddev xs =
  let m = ref_mean xs in
  sqrt
    (Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
    /. float_of_int (Array.length xs))

let ref_fit x y =
  let n = Array.length x in
  let nf = float_of_int n in
  let mx = Array.fold_left ( +. ) 0.0 x /. nf in
  let my = Array.fold_left ( +. ) 0.0 y /. nf in
  let sxx = ref 0.0 and sxy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = x.(i) -. mx in
    sxx := !sxx +. (dx *. dx);
    sxy := !sxy +. (dx *. (y.(i) -. my))
  done;
  let slope = if !sxx = 0.0 then 0.0 else !sxy /. !sxx in
  let intercept = my -. (slope *. mx) in
  let ss = ref 0.0 in
  for i = 0 to n - 1 do
    let r = y.(i) -. (intercept +. (slope *. x.(i))) in
    ss := !ss +. (r *. r)
  done;
  (slope, sqrt (!ss /. nf))

let same_bits what a b =
  if Int64.bits_of_float a <> Int64.bits_of_float b then
    Alcotest.failf "%s: %h <> %h" what a b

(* One MI whose sample buffers first held [stale] samples, then is reset
   and fed [n] fresh ones: its metrics must equal the reference formulas
   on fresh arrays of exactly those [n] samples. *)
let check_reused_mi ~stale ~n ~seed =
  let rng = Rng.create ~seed in
  let mi = Mi.create ~id:0 ~target_rate:1e6 ~start_time:0.0 in
  let feed mi k ~t0 =
    let xs = Array.make k 0.0 and ys = Array.make k 0.0 in
    for i = 0 to k - 1 do
      Mi.record_sent mi ~size:1500;
      xs.(i) <- t0 +. (0.0001 *. float_of_int i) +. Rng.float rng 1e-5;
      ys.(i) <- 0.03 +. Rng.float rng 0.01
    done;
    for i = 0 to k - 1 do
      Mi.record_ack_sample mi ~send_time:xs.(i) ~rtt:ys.(i)
    done;
    (xs, ys)
  in
  ignore (feed mi stale ~t0:0.0);
  Mi.close mi ~end_time:0.5;
  ignore (Mi.metrics mi);
  Mi.reset mi ~id:1 ~target_rate:2e6 ~start_time:1.0;
  let xs, ys = feed mi n ~t0:1.0 in
  Mi.close mi ~end_time:1.2;
  let m = Mi.metrics mi in
  let what s = Printf.sprintf "stale %d, n %d: %s" stale n s in
  Alcotest.(check int) (what "samples") n m.Mi.n_rtt_samples;
  let duration = 1.2 -. 1.0 in
  if n = 0 then same_bits (what "mean") 0.0 m.Mi.avg_rtt
  else if n = 1 then same_bits (what "mean") ys.(0) m.Mi.avg_rtt
  else begin
    let slope, rms = ref_fit xs ys in
    same_bits (what "mean") (ref_mean ys) m.Mi.avg_rtt;
    same_bits (what "stddev") (ref_stddev ys) m.Mi.rtt_deviation;
    same_bits (what "slope") slope m.Mi.rtt_gradient;
    same_bits (what "residual rms") (rms /. duration) m.Mi.regression_error;
    (* The library's prefix forms agree with the same references. *)
    let big = Array.append ys (Array.make 7 1e9) in
    same_bits (what "mean_prefix") (ref_mean ys) (Descriptive.mean_prefix big ~n);
    same_bits (what "stddev_prefix") (ref_stddev ys)
      (Descriptive.stddev_prefix big ~n);
    let f = Regression.fit_prefix ~x:(Array.append xs [| 3.0 |]) ~y:big ~n in
    same_bits (what "fit_prefix slope") slope f.Regression.slope;
    same_bits (what "fit_prefix rms") rms f.Regression.residual_rms
  end

let test_mi_stats_bit_identical () =
  List.iteri
    (fun i (stale, n) -> check_reused_mi ~stale ~n ~seed:(i + 1))
    [ (0, 0); (40, 0); (40, 1); (40, 2); (300, 2); (300, 150); (10, 500); (500, 500) ]

(* ---------- Gc guards ---------- *)

let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Minor words per acknowledged packet of two flows of [factory] over
   3 sim-s of a clean 100 Mb/s, 30 ms path: the dumbbell by default, or
   a 2-hop chain (forward hops and mirrored reverse hops). *)
let words_per_pkt ?(audited = false) ?(chain = false) factory =
  let cfg = Link.config ~bandwidth_mbps:100.0 ~rtt_ms:30.0 ~buffer_bytes:375_000 () in
  let r, route =
    if chain then
      let half = Link.config ~bandwidth_mbps:100.0 ~rtt_ms:15.0 ~buffer_bytes:375_000 () in
      let topo = Topology.chain [ half; half ] in
      (Runner.create_topo ~seed:7 topo, Some (Topology.chain_route topo))
    else (Runner.create ~seed:7 cfg, None)
  in
  if audited then ignore (Runner.attach_audit r);
  let flows =
    List.map (fun label -> Runner.add_flow r ?route ~label ~factory:(factory ())) [ "a"; "b" ]
  in
  Runner.run r ~until:1.0;
  let acked () =
    List.fold_left (fun n f -> n + Flow_stats.packets_acked (Runner.stats f)) 0 flows
  in
  let a0 = acked () in
  let w = words (fun () -> Runner.run r ~until:4.0) in
  w /. float_of_int (acked () - a0)

let cubic_words_per_pkt ~audited = words_per_pkt ~audited Proteus_cc.Cubic.factory

(* The auditor's per-packet work (two table operations, the event ring,
   the clock and backlog checks) allocates nothing; what it may add in
   this profile is the boxing of floats handed across module boundaries:
   the [Link.backlog_bytes] result behind each of the two backlog
   observations per packet (sent, then ACK or loss), 2 words each. The
   Hashtbl-based auditor added about 10 words per packet here. *)
let audit_allowance = 4.0

let test_audit_gc_guard () =
  let plain = cubic_words_per_pkt ~audited:false in
  let audited = cubic_words_per_pkt ~audited:true in
  if audited -. plain > audit_allowance +. 0.5 then
    Alcotest.failf
      "auditor adds %.2f minor words per packet (%.2f unaudited, %.2f audited); \
       allowance %.1f"
      (audited -. plain) plain audited audit_allowance

(* A Proteus-S sender on a 10 Mb/s, 30 ms path, driven through the
   unboxed entry points: every 0.1 ms it may send, and packets sent
   30-31 ms ago are ACKed. *)
let test_proteus_s_gc_guard () =
  let config =
    {
      (Controller.default_config ~utility:(Proteus.Utility.proteus_s ())) with
      Controller.max_swing_up = 0.5;
    }
  in
  let factory, handle = Proteus.Presets.with_handle config in
  let s = factory (Sender.make_env ~rng:(Rng.create ~seed:3) ~mtu:1500 ()) in
  let c = Option.get (handle ()) in
  let meta = Array.make 6 0.0 in
  let cap = 1 lsl 16 in
  let q_seq = Array.make cap 0 and q_send = Array.make cap 0.0 in
  let head = ref 0 and tail = ref 0 and seq = ref 0 and acks = ref 0 in
  let rng = Rng.create ~seed:4 in
  let step i =
    let now = 0.0001 *. float_of_int i in
    meta.(0) <- now;
    Sender.next_send_m s ~meta;
    if meta.(3) <= now && !tail - !head < cap then begin
      Sender.on_sent_m s ~meta ~seq:!seq ~size:1500;
      q_seq.(!tail land (cap - 1)) <- !seq;
      q_send.(!tail land (cap - 1)) <- now;
      incr tail;
      incr seq
    end;
    while !head < !tail && q_send.(!head land (cap - 1)) +. 0.031 <= now do
      let k = !head land (cap - 1) in
      meta.(0) <- now;
      meta.(1) <- q_send.(k);
      meta.(2) <- 0.03 +. Rng.float rng 0.001;
      Sender.on_ack_m s ~meta ~seq:q_seq.(k) ~size:1500;
      incr acks;
      incr head
    done
  in
  for i = 0 to 19_999 do
    step i
  done;
  let mis0 = Controller.mi_count c and acks0 = !acks in
  let w =
    words (fun () ->
        for i = 20_000 to 99_999 do
          step i
        done)
  in
  let mis = Controller.mi_count c - mis0 and acks = !acks - acks0 in
  if mis < 100 then Alcotest.failf "only %d MIs completed" mis;
  let per_ack = w /. float_of_int acks in
  (* Allowance: about 10 words per ACK of boxing at module boundaries
     in this profile (the harness's RTT draw, the floats the controller
     hands to Ack_filter and Mi per ACK), plus per MI the metrics record
     spread over the MI's ACKs. The fold-based MI path allocated about
     36 words per ACK here. *)
  if per_ack > 12.0 then
    Alcotest.failf
      "Proteus-S allocates %.2f minor words per ACK over %d MIs and %d ACKs \
       (bound 12)"
      per_ack mis acks

(* 10k ACK delivery times through the Wi-Fi noise model. *)
let test_wifi_noise_gc_guard () =
  let n = Noise.create Noise.default_wifi ~rng:(Rng.create ~seed:5) in
  let out = Array.make 1 0.0 in
  let draw i =
    out.(0) <-
      Noise.ack_delivery_time n ~nominal:(0.0001 *. float_of_int i)
  in
  for i = 0 to 999 do
    draw i
  done;
  let w =
    words (fun () ->
        for i = 1_000 to 10_999 do
          draw i
        done)
  in
  let per_draw = w /. 10_000.0 in
  (* Allowance: 8 words of boxing per draw in this profile: the
     [~nominal] argument and the result at this call boundary, and the
     Gaussian draw and the [Units.ms] conversion inside the model (each
     a cross-module result). A boxed slow path with boxed Rng draws
     allocated about 17 words per draw here. *)
  if per_draw > 10.0 then
    Alcotest.failf "Wi-Fi noise allocates %.2f minor words per draw (bound 10)"
      per_draw

(* The sender boundary: a controller reached through [Sender.packed]
   pays no boxing of its own at the call. Reno does the per-packet work
   of CUBIC (a window check, an increment, an EWMA) and reads the same
   meta slots; what it may add is its record's own boxing: an int
   counter sits among its floats, so its two float stores per ACK (the
   window and the smoothed RTT) box, 4 words, where CUBIC's all-float
   record stores in place. When Reno was reached through an adapter
   that boxed the floats of every call, it allocated 16 more words per
   packet than CUBIC here. *)
let sender_allowance = 4.0

let test_sender_gc_guard () =
  let cubic = words_per_pkt Proteus_cc.Cubic.factory in
  let reno = words_per_pkt Proteus_cc.Reno.factory in
  if reno -. cubic > sender_allowance +. 0.5 then
    Alcotest.failf
      "reno allocates %.2f minor words per packet more than cubic (%.2f vs \
       %.2f); allowance %.1f"
      (reno -. cubic) reno cubic sender_allowance

(* The runner's calls into [Link]: event and ACK times travel in the
   runner's scratch array ([Link.transmit_into], [Link.forward],
   [Link.ack_transit]), so no float is boxed on the way into a link or
   back. On a 2-hop chain a packet's ACK crosses two forward and two
   reverse hops; what it may still add over the dumbbell in this
   profile is the kernel's boxing for its two extra hop events: the
   [Sim.now] result at the second hop's admission and at delivery, at
   the first hop's admission (the dumbbell reads the clock once per
   send), and the arrival time pushed on the second hop's lane — four
   floats, 8 words. When the hop calls took and returned floats (and
   [forward] returned its arrival time in a variant), the chain added
   20 words per packet here. (The dumbbell's boxed [~now] showed only
   in optimised builds, where [Sim.now] is inlined: 2 words per
   packet.) *)
let hop_allowance = 8.0

let test_link_gc_guard () =
  let dumbbell = words_per_pkt Proteus_cc.Cubic.factory in
  let chain = words_per_pkt ~chain:true Proteus_cc.Cubic.factory in
  if chain -. dumbbell > hop_allowance +. 0.5 then
    Alcotest.failf
      "the 2-hop chain allocates %.2f minor words per packet more than the \
       dumbbell (%.2f vs %.2f); allowance %.1f"
      (chain -. dumbbell) chain dumbbell hop_allowance

let suite =
  [
    ("seq table rejects negative keys", `Quick, test_seq_table_rejects_negative);
    ("reused MI statistics are bit-identical", `Quick, test_mi_stats_bit_identical);
    ("auditor Gc guard", `Quick, test_audit_gc_guard);
    ("Proteus-S Gc guard", `Quick, test_proteus_s_gc_guard);
    ("Wi-Fi noise Gc guard", `Quick, test_wifi_noise_gc_guard);
    ("sender boundary Gc guard", `Quick, test_sender_gc_guard);
    ("runner-to-link Gc guard", `Quick, test_link_gc_guard);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_seq_table; prop_audit ]
