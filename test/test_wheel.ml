(* Event-kernel ordering tests. Covers the timing wheel directly
   (ordering, far-future clamping, counters), the run loop's fire order
   against an independent reference for random schedules (including
   behind-cursor re-entry, the wheel/heap routing boundary and
   cancel-heavy workloads), and full network runs whose flow digests
   must match goldens captured from the retired heap-only event loop,
   on the dumbbell and a 3-hop chain. *)

open Proteus_eventsim
module Net = Proteus_net
module Topology = Proteus_net.Topology

(* ---------- wheel structure ---------- *)

let test_wheel_orders () =
  let w = Wheel.create ~tick:1e-3 ~slots:8 () in
  (* Spread inserts across level 0, level 1 and past the clamp range;
     sequence numbers encode the expected global order. *)
  let entries =
    [ (0.004, 2); (0.0041, 3); (2.0, 5); (0.0005, 0); (500.0, 6);
      (0.002, 1); (1.0, 4) ]
  in
  List.iteri (fun id (time, seq) -> Wheel.insert w ~time ~seq ~id) entries;
  let order = List.init (List.length entries) (fun _ -> Wheel.extract w) in
  let expected =
    List.mapi (fun id (_, seq) -> (seq, id)) entries
    |> List.sort compare |> List.map snd
  in
  Alcotest.(check (list int)) "extraction order" expected order;
  Alcotest.(check int) "drained" 0 (Wheel.count w);
  Alcotest.(check bool) "cascaded for far entries" true (Wheel.cascades w > 0)

let test_wheel_equal_time_seq_ties () =
  let w = Wheel.create () in
  (* Same fire time, shuffled insert order: extraction must follow the
     sequence numbers exactly. *)
  List.iter
    (fun (seq, id) -> Wheel.insert w ~time:0.5 ~seq ~id)
    [ (3, 30); (0, 0); (2, 20); (1, 10) ];
  let order = List.init 4 (fun _ -> Wheel.extract w) in
  Alcotest.(check (list int)) "seq ties" [ 0; 10; 20; 30 ] order

let test_wheel_behind_cursor () =
  let w = Wheel.create ~tick:1e-3 ~slots:4 () in
  Wheel.insert w ~time:0.25 ~seq:0 ~id:0;
  Alcotest.(check int) "first" 0 (Wheel.extract w);
  (* The cursor now sits at 0.25; entries behind it must still come out
     in (time, seq) order, merged into the due batch. *)
  Wheel.insert w ~time:0.3 ~seq:3 ~id:3;
  Wheel.insert w ~time:0.1 ~seq:1 ~id:1;
  Wheel.insert w ~time:0.1 ~seq:2 ~id:2;
  let order = List.init 3 (fun _ -> Wheel.extract w) in
  Alcotest.(check (list int)) "behind-cursor merge" [ 1; 2; 3 ] order

let prop_wheel_sorted_extraction =
  QCheck.Test.make ~name:"wheel extracts in (time, seq) order" ~count:200
    QCheck.(
      list_of_size Gen.(int_range 0 200)
        (float_bound_exclusive 5.0))
    (fun times ->
      let w = Wheel.create ~tick:1e-3 ~slots:16 () in
      List.iteri (fun seq time -> Wheel.insert w ~time ~seq ~id:seq) times;
      let popped = List.init (List.length times) (fun _ -> Wheel.extract w) in
      let expected =
        List.mapi (fun seq time -> (time, seq)) times
        |> List.sort compare |> List.map snd
      in
      popped = expected && Wheel.count w = 0)

(* ---------- set-up allocation ---------- *)

(* Major-heap words [f] allocates. The minor heap is emptied first, so
   a set-up far smaller than it triggers no promotion: any major words
   come from blocks too large for the minor heap. *)
let major_words f =
  Gc.minor ();
  let before = (Gc.quick_stat ()).major_words in
  ignore (Sys.opaque_identity (f ()));
  (Gc.quick_stat ()).major_words -. before

(* The wheel's two slot tables are [slots]-word blocks: above 256 words
   (Max_young_wosize) every [Sim.create] would allocate them directly
   on the major heap, which showed up as slower set-ups next to a live
   domain pool. *)
let test_setup_minor_only () =
  Alcotest.(check (float 0.0)) "Sim.create" 0.0 (major_words Sim.create);
  let topo =
    Topology.make
      (List.init 24 (fun _ ->
           Net.Link.config ~bandwidth_mbps:20.0 ~rtt_ms:24.0
             ~buffer_bytes:150_000 ()))
  in
  Alcotest.(check (float 0.0))
    "24-link Runner.create_topo" 0.0
    (major_words (fun () -> Net.Runner.create_topo ~seed:3 topo))

(* ---------- run-loop fire order vs a reference ---------- *)

(* Follow-ups an event schedules when it fires, in scheduling order:
   every third original event schedules a same-instant follow-up (the
   inline-poll / behind-cursor pattern) and every fifth a far-future one
   beyond the wheel's horizon, so ordering is stressed both behind the
   cursor and across the wheel/heap routing boundary. *)
let follow_ups ~now i =
  if i < 0 then []
  else
    (if i mod 3 = 0 then [ (now, -i - 1) ] else [])
    @ if i mod 5 = 0 then [ (now +. 123.0, -i - 1001) ] else []

(* Replay one random schedule through [at_fn] (the wheel-routed fast
   path) and log the firing order. *)
let replay times =
  let sim = Sim.create () in
  let log = ref [] in
  let rec fire i =
    log := i :: !log;
    List.iter
      (fun (time, arg) -> Sim.at_fn sim ~time ~fn:fire ~arg)
      (follow_ups ~now:(Sim.now sim) i)
  in
  List.iteri (fun i t -> Sim.at_fn sim ~time:t ~fn:fire ~arg:i) times;
  Sim.run sim;
  (List.rev !log, Sim.pending sim, Sim.queued sim)

(* The same schedule on a naive reference scheduler: a list scanned for
   the smallest (time, seq) entry, with seq numbered in scheduling
   order. *)
let reference_order times =
  let pending = ref [] and seq = ref 0 and log = ref [] in
  let push (time, arg) =
    pending := (time, !seq, arg) :: !pending;
    incr seq
  in
  List.iteri (fun i t -> push (t, i)) times;
  while !pending <> [] do
    let ((now, _, arg) as next) =
      List.fold_left min (List.hd !pending) !pending
    in
    pending := List.filter (fun e -> e != next) !pending;
    log := arg :: !log;
    List.iter push (follow_ups ~now arg)
  done;
  List.rev !log

let prop_fires_in_reference_order =
  QCheck.Test.make ~name:"fires in (time, seq) order" ~count:150
    QCheck.(
      list_of_size
        Gen.(int_range 0 120)
        (* Coarse grid so equal-time ties are frequent. *)
        (make ~print:string_of_float
           Gen.(map (fun k -> float_of_int k *. 0.01) (int_range 0 300))))
    (fun times ->
      let order, p, q = replay times in
      order = reference_order times && p = 0 && q = 0)

(* Cancel-heavy workload: interleave pooled-cell events with
   cancellables, cancel a pseudo-random subset before running, and check
   the survivors fire in sorted (time, seq) order with nothing leaked —
   [pending]/[queued] must both drain to zero (cancelled cells are
   reclaimed by compaction or at their fire time). Cancellables are
   scheduled first, so they hold seq 0..k-1 and the [at_fn] events
   seq k.. . *)
let cancellable_times times = List.filteri (fun i _ -> i mod 3 <> 0) times
let cancelled i = i land 1 = 0

let replay_cancelling times =
  let sim = Sim.create () in
  let log = ref [] in
  let cancels =
    cancellable_times times
    |> List.mapi (fun i t ->
           Sim.at_cancellable sim ~time:t (fun () -> log := (1000 + i) :: !log))
  in
  List.iteri
    (fun i t -> Sim.at_fn sim ~time:t ~fn:(fun a -> log := a :: !log) ~arg:i)
    times;
  List.iteri (fun i c -> if cancelled i then Sim.cancel c) cancels;
  Sim.run sim;
  (List.rev !log, Sim.pending sim, Sim.queued sim)

let reference_cancelling times =
  let cs = cancellable_times times in
  let k = List.length cs in
  List.filteri (fun i _ -> not (cancelled i))
    (List.mapi (fun i t -> (t, i, 1000 + i)) cs)
  @ List.mapi (fun i t -> (t, k + i, i)) times
  |> List.sort compare
  |> List.map (fun (_, _, label) -> label)

let prop_cancel_no_leaks =
  QCheck.Test.make ~name:"cancel-heavy runs drain in order" ~count:150
    QCheck.(
      list_of_size
        Gen.(int_range 0 80)
        (make ~print:string_of_float
           Gen.(map (fun k -> float_of_int k *. 0.02) (int_range 0 200))))
    (fun times ->
      let order, p, q = replay_cancelling times in
      order = reference_cancelling times && p = 0 && q = 0)

(* ---------- golden flow digests ---------- *)

(* Structural digest of a finished run: packet counters plus a hash of
   every RTT sample and the final clock. Any change in event order
   shows up here (RTT series are order-sensitive). *)
let digest r fs =
  let h = ref 0 in
  let add x = h := (!h * 1000003) lxor Hashtbl.hash x in
  List.iter
    (fun f ->
      let st = Net.Runner.stats f in
      add (Net.Flow_stats.packets_sent st);
      add (Net.Flow_stats.packets_acked st);
      add (Net.Flow_stats.packets_lost st);
      add (Net.Flow_stats.packets_dup_acked st);
      add (Net.Flow_stats.bytes_acked st);
      Array.iter add (Net.Flow_stats.rtt_samples st ~t0:0.0 ~t1:infinity))
    fs;
  add (Sim.now (Net.Runner.sim r));
  !h

let dumbbell_digest ~noise ~loss =
  let cfg =
    Net.Link.config ~bandwidth_mbps:50.0 ~rtt_ms:30.0 ~buffer_bytes:375_000
      ?noise:(if noise then Some Net.Noise.default_wifi else None)
      ?loss_rate:(if loss then Some 0.01 else None)
      ()
  in
  let r = Net.Runner.create ~seed:7 cfg in
  let a =
    Net.Runner.add_flow r ~label:"a" ~factory:(Proteus_cc.Cubic.factory ())
  in
  let b =
    Net.Runner.add_flow r ~label:"b" ~factory:(Proteus.Presets.proteus_s ())
  in
  Net.Runner.run r ~until:5.0;
  digest r [ a; b ]

(* Goldens below were captured from the heap-only event loop (every
   event in the binary heap, no lanes, no inline polls) before it was
   retired; the wheel loop must reproduce them exactly. *)
let dumbbell_goldens =
  [
    ((false, false), -3490298800360828550);
    ((true, false), 4506623660541073620);
    ((false, true), 4029971567352045953);
    ((true, true), 2714606542223403441);
  ]

let test_dumbbell_parity () =
  List.iter
    (fun ((noise, loss), expected) ->
      Alcotest.(check int)
        (Printf.sprintf "dumbbell noise=%b loss=%b" noise loss)
        expected
        (dumbbell_digest ~noise ~loss))
    dumbbell_goldens

let chain_digest () =
  let mk bw =
    Net.Link.config ~bandwidth_mbps:bw ~rtt_ms:20.0 ~buffer_bytes:150_000 ()
  in
  let topo = Topology.chain [ mk 20.0; mk 12.0; mk 30.0 ] in
  let r = Net.Runner.create_topo ~seed:23 topo in
  let e2e =
    Net.Runner.add_flow r ~route:(Topology.chain_route topo) ~label:"e2e"
      ~factory:(Proteus.Presets.proteus_s ())
  in
  let cross =
    List.init 3 (fun hop ->
        Net.Runner.add_flow r
          ~route:(Topology.hop_route topo ~hop)
          ~label:(Printf.sprintf "x%d" hop)
          ~factory:(Proteus_cc.Cubic.factory ()))
  in
  Net.Runner.run r ~until:5.0;
  digest r (e2e :: cross)

let test_chain_parity () =
  Alcotest.(check int) "3-hop chain digest" 880802862608330761 (chain_digest ())

let suite =
  [
    Alcotest.test_case "wheel: mixed-range ordering" `Quick test_wheel_orders;
    Alcotest.test_case "wheel: equal-time seq ties" `Quick
      test_wheel_equal_time_seq_ties;
    Alcotest.test_case "wheel: behind-cursor merge" `Quick
      test_wheel_behind_cursor;
    QCheck_alcotest.to_alcotest prop_wheel_sorted_extraction;
    Alcotest.test_case "set-up allocates no major words" `Quick
      test_setup_minor_only;
    QCheck_alcotest.to_alcotest prop_fires_in_reference_order;
    QCheck_alcotest.to_alcotest prop_cancel_no_leaks;
    Alcotest.test_case "digest parity: dumbbell" `Slow test_dumbbell_parity;
    Alcotest.test_case "digest parity: 3-hop chain" `Slow test_chain_parity;
  ]
