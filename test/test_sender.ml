(* The sender boundary. Golden digests for the baseline congestion
   controllers, taken through the runner on a Wi-Fi-noisy dumbbell (ACK
   reordering and duplication on, light random loss) and on a 2-hop
   chain, plus one cubic-dp sender driven only through the [Sender]
   convenience calls (a 4-slot scratch: the datapath adapter's own
   inflight and delivery estimates stand in for the runner-supplied
   slots 4 and 5). The digests were captured while the baselines were
   still reached through a boxing adapter; any change in event order,
   RNG draws or floating-point results shows up here. Last, the flow id
   the runner hands each sender is what its trace events carry. *)

module Net = Proteus_net
module Link = Net.Link
module Topology = Net.Topology
module Sender = Net.Sender
module Rng = Proteus_stats.Rng

let fmt_f v = Printf.sprintf "%.17g" v

let flow_digest f =
  let st = Net.Runner.stats f in
  let rtts = Net.Flow_stats.rtt_samples st ~t0:0.0 ~t1:infinity in
  Printf.sprintf "%s sent=%d acked=%d lost=%d dup=%d bytes=%s rtt_n=%d rtt_sum=%s"
    (Net.Runner.label f)
    (Net.Flow_stats.packets_sent st)
    (Net.Flow_stats.packets_acked st)
    (Net.Flow_stats.packets_lost st)
    (Net.Flow_stats.packets_dup_acked st)
    (fmt_f (Net.Flow_stats.bytes_acked st))
    (Array.length rtts)
    (fmt_f (Array.fold_left ( +. ) 0.0 rtts))

let factory = function
  | "reno" -> Proteus_cc.Reno.factory ()
  | "vegas" -> Proteus_cc.Vegas.factory ()
  | name -> Result.get_ok (Proteus_scenario.Protocols.factory name)

(* The protocol under test plus a CUBIC peer joining at 1 s, audited. *)
let run r ?route name =
  let a = Net.Runner.add_flow r ?route ~label:name ~factory:(factory name) in
  let b =
    Net.Runner.add_flow r ?route ~start:1.0 ~label:"peer"
      ~factory:(Proteus_cc.Cubic.factory ())
  in
  ignore (Net.Runner.attach_audit r);
  Net.Runner.run r ~until:6.0;
  flow_digest a ^ " | " ^ flow_digest b

let run_dumbbell name =
  let cfg =
    Link.config ~noise:Net.Noise.default_wifi ~reorder_prob:0.05 ~dup_prob:0.02
      ~loss_rate:0.002 ~bandwidth_mbps:20.0 ~rtt_ms:30.0 ~buffer_bytes:100_000 ()
  in
  run (Net.Runner.create_topo ~seed:5 (Topology.dumbbell cfg)) name

let run_chain name =
  let topo =
    Topology.chain
      [
        Link.config ~bandwidth_mbps:30.0 ~rtt_ms:10.0 ~buffer_bytes:120_000 ();
        Link.config ~loss_rate:0.005 ~bandwidth_mbps:12.0 ~rtt_ms:20.0
          ~buffer_bytes:60_000 ();
      ]
  in
  run (Net.Runner.create_topo ~seed:5 topo) ~route:(Topology.chain_route topo) name

(* (protocol, MD5 of the dumbbell digest, MD5 of the chain digest) *)
let goldens =
  [
    ("bbr", "affa617f3a93ab03c650e0e7a29b543a",
     "3920af2876ae3fd1bac8f8c0bacfd155");
    ("bbr-s", "df255d0a60929b49130878ca625895be",
     "4dd8754c1dbad27e5505b5a94c98ff7f");
    ("copa", "bb8d3ecf12392e91a99c1ff5f0d6a78f",
     "a68991fb81a2558b0b19b72bd4835ea6");
    ("ledbat-100", "542af6fc99c1e9b4253056ff0a6047d6",
     "2776c3a5ecbe7c8111ea8e9cb3493768");
    ("ledbat-25", "210c121dddcdd079018d606fc3f624c6",
     "2a75261a642e9326f4f92fc5aa4a45c3");
    ("reno", "f04a7e4ba3dd7492a0bc90eafee1a498",
     "68d2128c5737dffebf1dd30e9f667d6b");
    ("vegas", "1568afe8c4f8b4879e6c25427dfefd67",
     "9ab8c917b289111d45dbe540b3cc4c20");
    ("blaster=8", "df81c7682ea2c9cb93f2cf7931736456",
     "691c4b38f62e164190215cada230059e");
    ("cubic", "92e7f8d9f0046ea443d2579384fcbd75",
     "ca78961495f10f3c18377f30a37bb6ee");
  ]

let check_golden ~what golden digest =
  let got = Digest.to_hex (Digest.string digest) in
  if got <> golden then
    Alcotest.failf "%s: digest %s, golden %s\n  %s" what got golden
      (if String.length digest < 2000 then digest else "")

let test_protocol (name, dumbbell, chain) () =
  check_golden ~what:(name ^ " on the noisy dumbbell") dumbbell (run_dumbbell name);
  check_golden ~what:(name ^ " on the 2-hop chain") chain (run_chain name)

(* A synthetic path: the sender is polled at jittered instants, and the
   oldest packet in flight is resolved once it is 30 ms old, lost with
   probability 0.05 and ACKed otherwise. *)
let cubic_dp_helpers_golden = "d4520f266722fb584f78e66a62bd90ca"

let test_cubic_dp_helpers () =
  let s =
    Proteus_cc.Cubic_dp.factory ()
      (Sender.make_env ~rng:(Rng.create ~seed:1) ~mtu:1500 ())
  in
  let rng = Rng.create ~seed:9 in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf (Sender.name s);
  let in_flight = Queue.create () in
  let now = ref 0.0 and seq = ref 0 in
  for _ = 1 to 20_000 do
    now := !now +. (0.0005 *. Rng.float rng 1.0);
    let t = Sender.next_send s ~now:!now in
    Buffer.add_string buf (Printf.sprintf ";%h" t);
    if t <= !now then begin
      Sender.on_sent s ~now:!now ~seq:!seq ~size:1500;
      Queue.add (!seq, !now) in_flight;
      incr seq
    end;
    match Queue.peek_opt in_flight with
    | Some (q, sent) when !now -. sent >= 0.03 ->
        ignore (Queue.pop in_flight);
        if Rng.bernoulli rng ~p:0.05 then
          Sender.on_loss s ~now:!now ~seq:q ~send_time:sent ~size:1500
        else
          Sender.on_ack s ~now:!now ~seq:q ~send_time:sent ~size:1500
            ~rtt:(!now -. sent)
    | _ -> ()
  done;
  check_golden ~what:"cubic-dp through the Sender calls" cubic_dp_helpers_golden
    (Buffer.contents buf)

(* ---------- controller trace events name their flow ---------- *)

module Trace = Proteus_obs.Trace

let decision_flows ~seconds flows =
  let trace = Trace.create ~capacity:(1 lsl 18) () in
  let r =
    Net.Runner.create ~seed:3 ~trace
      (Link.config ~bandwidth_mbps:10.0 ~rtt_ms:30.0 ~buffer_bytes:75_000 ())
  in
  List.iteri
    (fun i factory -> ignore (Net.Runner.add_flow r ~label:(string_of_int i) ~factory))
    flows;
  Net.Runner.run r ~until:seconds;
  if Trace.dropped trace > 0 then Alcotest.fail "trace ring overflowed";
  let seen = Hashtbl.create 4 and n = ref 0 in
  Trace.iter trace ~f:(fun e ->
      match e.Trace.kind with
      | Trace.Mi_boundary | Trace.Rate_decision | Trace.Utility_sample ->
          incr n;
          Hashtbl.replace seen e.Trace.flow ()
      | _ -> ());
  (!n, List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []))

let test_trace_flow_ids () =
  let n, ids =
    decision_flows ~seconds:5.0
      [ Proteus.Presets.proteus_p (); Proteus.Presets.proteus_s () ]
  in
  if n < 100 then Alcotest.failf "only %d controller events" n;
  Alcotest.(check (list int)) "Proteus decision events name flows 0 and 1" [ 0; 1 ] ids;
  (* The datapath adapter's report events, for a fold program behind a
     CUBIC flow. *)
  let n, ids =
    decision_flows ~seconds:2.0
      [ Proteus_cc.Cubic.factory (); Proteus_cc.Cubic_dp.factory ~interval:0.1 () ]
  in
  if n = 0 then Alcotest.fail "no datapath reports";
  Alcotest.(check (list int)) "datapath reports name flow 1" [ 1 ] ids

let suite =
  List.map
    (fun ((name, _, _) as g) ->
      ("golden digest: " ^ name, `Quick, test_protocol g))
    goldens
  @ [
      ("golden digest: cubic-dp through Sender calls", `Quick, test_cubic_dp_helpers);
      ("controller trace events name their flow", `Quick, test_trace_flow_ids);
    ]
