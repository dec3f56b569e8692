(* The benchmark's three workloads. Each is a fixed batch job built only
   from the simulator's public constructors and the seed the benchmark
   was given; none selects an event kernel, so every run measures the
   library defaults.

   A workload is used through {!prepare}: calling it performs the
   set-up (timed by the caller as set-up time) and returns the closure
   that runs the job and reports a {!pass}. *)

module Net = Proteus_net
module Runner = Net.Runner
module Link = Net.Link
module Topology = Net.Topology
module Aggregate = Net.Aggregate
module Shard = Net.Shard
module Audit = Net.Audit
module Pool = Proteus_parallel.Pool
module Scn = Proteus_scenario
module Sweep = Proteus_harness.Sweep
module Journal = Proteus_harness.Journal

(* [Measure] is the configuration the end-to-end metrics time. The
   others serve the traced run, each on one domain and on the code path
   [Measure] takes: [Plain] is the same model with tracing off (for
   cdn-edge: the sharded farm without the pool), [No_audit] drops the
   auditor and wraps every sender in the timing shim, [Traced] enables
   the trace bus and nothing else. [Shard] takes no trace bus, so on
   cdn-edge [Traced] runs the farm on one runner, and [Direct] is that
   runner with the bus off: the pass the traced one is compared with,
   and the check that sharding changes no result. Elsewhere [Direct] is
   [Plain]. [Measure], [Plain] and [Direct] must reproduce the golden
   digest; the other two are checked against passes of their own kind
   (see {!Run}). *)
type mode = Measure | Plain | No_audit | Traced | Direct

(* With tracing off a run is split into [slices] child processes, run
   one after another (see {!Run}); child [k] is given slice [k] of the
   work, on seeds of its own: [slice_seed seed k] for the one-job
   workloads, and for scenario-sweep the instances whose index is [k]
   modulo [slices]. So a run's figures are medians over several seeds
   and several processes: a workload's peak heap differs from seed to
   seed, and on the host the benchmark was sized on, its speed from
   process to process. *)
let slices = 10
let slice_seed seed k = (seed * slices) + k

type ctx = {
  seed : int;  (** the benchmark seed *)
  slice : int option;  (** [Some k]: slice [k] of the work; [None]: all of it *)
  quick : bool;  (** miniature sizes, for the benchmark's own tests *)
  scenarios : string;  (** corpus directory of scenario-sweep *)
  out_dir : string;  (** where the sweep journal is written *)
  pool : Pool.t option;  (** domains for cdn-edge's sharded run *)
  probes : (string, Shim.probe) Hashtbl.t;  (** sender shim, by protocol *)
}

type sweep_stats = {
  load_ms : float;
  expand_ms : float;
  instantiate_ms : float list;
  metrics_ms : float list;
  overhead_ms : float list;  (** sweep row time minus the timed task *)
  journal_bytes : int;
  retries : int;
}

type shard_stats = { epoch_ms : float list; shard_events : int list }

type pass = {
  wall_s : float;  (** host seconds of the measured phase *)
  paced_s : float;
      (** the timed steps of the measured phase, at the reference pace
          (see {!Pace}) in the end-to-end run and in host seconds
          otherwise *)
  units : (string * string) list;  (** digest: (unit id, text), in order *)
  runs : int;
  run_ms : float list;  (** host ms per run, at the reference pace *)
  acc : Job.acc;
  sweep : sweep_stats option;
  shard : shard_stats option;
  floor_share : float;  (** cdn-edge: foreground bins at the service floor *)
}

let ms_since c0 = float_of_int (Shim.now_ns () - c0) /. 1e6

let bus_of mode =
  match mode with
  | Traced ->
      let b = Lazy.force Job.bus in
      Proteus_obs.Trace.clear b;
      Some b
  | Measure | Plain | No_audit | Direct -> None

let audited mode = mode <> No_audit

(* Proteus presets by name; a shim wraps them with the auditor off. *)
let factory ctx mode name =
  let f =
    match name with
    | "proteus-p" -> Proteus.Presets.proteus_p ()
    | "proteus-s" -> Proteus.Presets.proteus_s ()
    | "proteus-h" -> Proteus.Presets.proteus_h ~threshold_mbps:(ref 10.0)
    | _ -> invalid_arg ("perfbench: unknown protocol " ^ name)
  in
  match mode with
  | No_audit ->
      let p =
        match Hashtbl.find_opt ctx.probes name with
        | Some p -> p
        | None ->
            let p = Shim.probe () in
            Hashtbl.replace ctx.probes name p;
            p
      in
      Shim.wrap p f
  | Measure | Plain | Traced | Direct -> f

(* The runner seed of a one-job workload; with all of the work, the
   seed of slice 0. *)
let job_seed ctx = slice_seed ctx.seed (Option.value ctx.slice ~default:0)

(* Run [f], turning any exception (crash, audit violation) into the
   "failed" line that opens a failed run's digest. *)
let guarded buf f =
  try f () with e -> Printf.bprintf buf "failed %s\n" (Printexc.to_string e)

let single ~id ~wall_s ~acc ~buf ?shard ?(floor_share = 0.0) () =
  {
    wall_s;
    paced_s = acc.Job.paced_ms /. 1000.0;
    units = [ (id, Buffer.contents buf) ];
    runs = 1;
    run_ms = [ acc.Job.paced_ms ];
    acc;
    sweep = None;
    shard;
    floor_share;
  }

(* Foreground flows stop this long before the horizon so every packet
   in flight lands and the auditor can assert exact conservation. *)
let drain_margin = 2.0

(* ---------- proteus-dumbbell ---------- *)

let dumbbell_protos =
  [
    "proteus-p"; "proteus-s"; "proteus-h"; "proteus-s";
    "proteus-p"; "proteus-s"; "proteus-h"; "proteus-s";
  ]

let dumbbell ctx mode =
  let dur = if ctx.quick then 10.0 else 200.0 in
  let bus = bus_of mode in
  let cfg =
    Link.config ~noise:Net.Noise.default_wifi ~bandwidth_mbps:100.0
      ~rtt_ms:30.0 ~buffer_bytes:375_000 ()
  in
  let seed = job_seed ctx in
  let r = Runner.create ~seed ?trace:bus cfg in
  let audit = if audited mode then Some (Runner.attach_audit r) else None in
  let flows =
    List.mapi
      (fun i name ->
        Runner.add_flow r
          ~start:(0.25 *. float_of_int i)
          ~stop:(dur -. drain_margin)
          ~label:(Printf.sprintf "%s.%d" name i)
          ~factory:(factory ctx mode name))
      dumbbell_protos
  in
  fun () ->
    let acc = Job.acc () and buf = Buffer.create 1024 in
    let c0 = Shim.now_ns () in
    guarded buf (fun () ->
        Job.run acc ?bus ~paced:(mode = Measure) r ~until:dur ~slice:1.0;
        Option.iter Audit.assert_quiesced audit);
    let wall_s = ms_since c0 /. 1000.0 in
    Job.digest acc buf r flows;
    single ~id:(Printf.sprintf "proteus-dumbbell@%d" seed) ~wall_s ~acc ~buf ()

(* ---------- scenario-sweep ---------- *)

let corpus ctx =
  let files =
    Sys.readdir ctx.scenarios |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".scn")
    |> List.sort String.compare
    |> List.map (Filename.concat ctx.scenarios)
  in
  if files = [] then failwith ("perfbench: no *.scn files under " ^ ctx.scenarios);
  if ctx.quick then List.filteri (fun i _ -> i < 3) files else files

let ok_or_fail = function Ok x -> x | Error e -> failwith e

(* %h floats round-trip byte-exactly through the journal. *)
let encode ms = String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) ms)

let decode s =
  if s = "" then []
  else
    List.map
      (fun kv ->
        match String.rindex_opt kv '=' with
        | None -> failwith ("perfbench: bad journal payload " ^ kv)
        | Some i ->
            ( String.sub kv 0 i,
              float_of_string (String.sub kv (i + 1) (String.length kv - i - 1)) ))
      (String.split_on_char ',' s)

let sweep ctx mode =
  let c0 = Shim.now_ns () in
  let templates = List.map (fun p -> ok_or_fail (Scn.Grid.load_file p)) (corpus ctx) in
  let load_ms = ms_since c0 in
  let c1 = Shim.now_ns () in
  let all =
    List.concat_map (fun t -> ok_or_fail (Scn.Grid.expand t ~trials:1)) templates
  in
  let expand_ms = ms_since c1 in
  let sub = Hashtbl.create 512 in
  List.iteri
    (fun i (inst : Scn.Grid.instance) ->
      Hashtbl.replace sub inst.id (slice_seed ctx.seed (i mod slices)))
    all;
  let instances =
    List.filteri
      (fun i _ -> match ctx.slice with None -> true | Some k -> i mod slices = k)
      all
  in
  let unit_id (i : Scn.Grid.instance) = Printf.sprintf "%s@%d" i.id (Hashtbl.find sub i.id) in
  fun () ->
    let acc = Job.acc () and bus = bus_of mode in
    let digests = Hashtbl.create 512 and task_ms = Hashtbl.create 512 in
    let inst_ms = ref [] and met_ms = ref [] and row_ms = ref [] and paced_ms = ref [] in
    let seed_of (i : Scn.Grid.instance) =
      Scn.Grid.seed_of_id (Printf.sprintf "%s#%d" i.id (Hashtbl.find sub i.id))
    in
    let task (i : Scn.Grid.instance) =
      let c0 = Shim.now_ns () in
      let r, flows = Scn.Build.instantiate ?trace:bus ~seed:(seed_of i) i.spec in
      inst_ms := ms_since c0 :: !inst_ms;
      if audited mode then ignore (Runner.attach_audit r);
      Job.run acc ?bus r ~until:i.spec.duration ~slice:1.0;
      let c2 = Shim.now_ns () in
      let ms = Scn.Build.metric_values i.spec flows in
      met_ms := ms_since c2 :: !met_ms;
      let buf = Buffer.create 512 in
      Job.digest acc buf r (List.map snd flows);
      List.iter (fun (k, v) -> Printf.bprintf buf "metric %s %.17g\n" k v) ms;
      Hashtbl.replace digests i.id (Buffer.contents buf);
      Hashtbl.replace task_ms i.id (ms_since c0);
      ms
    in
    let pool_map f ks =
      List.map
        (fun k ->
          let paced = mode = Measure in
          if paced then Pace.tick ();
          let c0 = Shim.now_ns () in
          let row = f k in
          let ms = ms_since c0 in
          row_ms := ms :: !row_ms;
          paced_ms := (if paced then Pace.scaled ms else ms) :: !paced_ms;
          row)
        ks
    in
    let journal = Filename.concat ctx.out_dir "scenario-sweep.journal.jsonl" in
    let cfg =
      {
        Sweep.default with
        journal = Some journal;
        params =
          Journal.params_hash
            [ "perfbench"; "scenario-sweep"; string_of_int ctx.seed;
              (match ctx.slice with None -> "all" | Some k -> string_of_int k) ];
      }
    in
    let w0 = Shim.now_ns () in
    let rows =
      Sweep.map cfg ~pool_map
        ~run_id:(fun (i : Scn.Grid.instance) -> i.id)
        ~seed_of ~encode ~decode task instances
    in
    let wall_s = ms_since w0 /. 1000.0 in
    let row_ms = List.rev !row_ms in
    let units, overhead_ms =
      List.split
        (List.map2
           (fun (i : Scn.Grid.instance) ((r : _ Sweep.row), row) ->
             match (r.r_failure, Hashtbl.find_opt digests i.id) with
             | None, Some d -> ((unit_id i, d), [ row -. Hashtbl.find task_ms i.id ])
             | Some f, _ ->
                 ((unit_id i, Printf.sprintf "failed %s %s\n" f.f_outcome f.f_detail), [])
             | None, None -> ((unit_id i, "failed missing-digest\n"), []))
           instances
           (List.combine rows row_ms))
    in
    let entries = Journal.load ~path:journal in
    {
      wall_s;
      paced_s = List.fold_left ( +. ) 0.0 !paced_ms /. 1000.0;
      units;
      runs = List.length rows;
      run_ms = List.rev !paced_ms;
      acc;
      sweep =
        Some
          {
            load_ms;
            expand_ms;
            instantiate_ms = !inst_ms;
            metrics_ms = !met_ms;
            overhead_ms = List.concat overhead_ms;
            journal_bytes = (Unix.stat journal).Unix.st_size;
            retries =
              Hashtbl.fold (fun _ (e : Journal.entry) n -> n + e.attempts - 1) entries 0;
          };
      shard = None;
      floor_share = 0.0;
    }

(* ---------- cdn-edge ---------- *)

(* Edge [e] is a two-hop path: a 1 Gb/s origin uplink (link [e]) into a
   100 Mb/s edge bottleneck (link [E + e]) that carries three fluid
   background classes, with ACKs over a reverse link ([2E + e]). Edges
   share no link, so [Shard] splits them across domains. *)

let edge_bw = 100.0

(* The fluid tier serves at most 95% of the edge; packets keep the rest.
   These envelopes keep the fluid offered load at 30-65% of the edge
   except for one 1.5 s swarm surge at t = 12 s, which pushes it past
   the 95% cap so responsive backoff and shedding still run. So the
   foreground normally competes for real capacity instead of sitting
   on the 5% service floor. *)
let fluid_classes ~edge =
  let af = 0.85 +. (0.1 *. float_of_int (edge mod 4)) in
  let scaled env = List.map (fun (t, r) -> (t, r *. af)) env in
  [
    Aggregate.cls ~flows:40_960 ~responsiveness:0.9 ~label:"web"
      (scaled
         [ (0.0, 14.0); (5.0, 22.0); (10.0, 28.0); (15.0, 16.0);
           (20.0, 26.0); (25.0, 12.0) ]);
    Aggregate.cls ~flows:8_192 ~responsiveness:0.5 ~label:"video"
      (scaled [ (0.0, 10.0); (8.0, 15.0); (16.0, 12.0); (24.0, 16.0) ]);
    Aggregate.cls ~flows:16_384 ~responsiveness:0.1 ~label:"swarm"
      (scaled
         [ (0.0, 8.0); (6.0, 12.0); (12.0, 70.0); (13.5, 9.0);
           (18.0, 14.0); (24.0, 10.0) ]);
  ]

let cdn_protos =
  [
    "proteus-p"; "proteus-s"; "proteus-h"; "proteus-s";
    "proteus-p"; "proteus-h"; "proteus-s"; "proteus-s";
  ]

let cdn_epoch = 0.5
let cdn_shards = 2

type cdn = {
  edges : int;
  dur : float;
  topo : Topology.t;
  flows : (Topology.route * string * Net.Sender.factory) list;
}

let cdn_build ctx mode =
  let e = if ctx.quick then 2 else 8 in
  let dur = if ctx.quick then 6.0 else 30.0 in
  let uplink () =
    Link.config ~bandwidth_mbps:1000.0 ~rtt_ms:4.0 ~buffer_bytes:1_500_000 ()
  in
  let edge () =
    Link.config ~bandwidth_mbps:edge_bw ~rtt_ms:20.0 ~buffer_bytes:750_000 ()
  in
  let links =
    List.init e (fun _ -> uplink ()) @ List.init (2 * e) (fun _ -> edge ())
  in
  let topo =
    List.fold_left
      (fun topo edge ->
        Topology.with_fluid topo ~link:(e + edge) (fluid_classes ~edge))
      (Topology.make links) (List.init e Fun.id)
  in
  let flows =
    List.concat
      (List.init e (fun edge ->
           let route =
             Topology.route topo ~fwd:[ edge; e + edge ] ~rev:[ (2 * e) + edge ]
           in
           List.mapi
             (fun i name ->
               (route, Printf.sprintf "e%02d.%s.%d" edge name i, factory ctx mode name))
             cdn_protos))
  in
  { edges = e; dur; topo; flows }

(* Share of (edge, 1 s bin) cells, from t = 2 s until the foreground
   stops, whose summed foreground goodput is within 10% of the 5%
   service floor. *)
let floor_share c stats =
  let per_edge = List.length cdn_protos in
  let stop = c.dur -. drain_margin in
  let floor = 1.1 *. 0.05 *. edge_bw in
  let at_floor = ref 0 and bins = ref 0 in
  for edge = 0 to c.edges - 1 do
    let series =
      List.init per_edge (fun i ->
          Net.Flow_stats.throughput_series (stats ((edge * per_edge) + i)) ~bin:1.0
            ~until:stop)
    in
    Array.iteri
      (fun b (t, _) ->
        if t >= 2.0 && t +. 1.0 <= stop then begin
          let sum = List.fold_left (fun s a -> s +. snd a.(b)) 0.0 series in
          incr bins;
          if sum <= floor then incr at_floor
        end)
      (List.hd series)
  done;
  if !bins = 0 then 0.0 else float_of_int !at_floor /. float_of_int !bins

let cdn_sharded ?pool ?paced ~audit ctx c =
  let specs =
    List.map
      (fun (route, label, f) ->
        Shard.spec ~route ~stop:(c.dur -. drain_margin) ~label f)
      c.flows
  in
  let sh =
    Shard.create ~seed:(job_seed ctx) ~shards:cdn_shards ~epoch:cdn_epoch ~audit c.topo specs
  in
  fun () ->
    let acc = Job.acc () and buf = Buffer.create 8192 in
    let epochs = ref [] in
    let c0 = Shim.now_ns () in
    guarded buf (fun () ->
        Job.stepped acc ?paced ~until:c.dur ~slice:cdn_epoch (fun h ->
            let e0 = Shim.now_ns () in
            Shard.run ?pool sh ~until:h;
            epochs := ms_since e0 :: !epochs);
        Shard.assert_quiesced sh);
    let wall_s = ms_since c0 /. 1000.0 in
    for i = 0 to Shard.num_flows sh - 1 do
      Job.flow_line acc buf (Shard.flow_label sh i) (Shard.flow_stats sh i)
    done;
    for i = 0 to Topology.num_links c.topo - 1 do
      Option.iter (Job.fluid_line acc buf i) (Link.fluid (Shard.link_at sh i))
    done;
    let shard_events =
      List.init (Shard.num_shards sh) (fun s ->
          let sim = Runner.sim (Shard.runner_at sh s) in
          Job.add_sim acc sim;
          Proteus_eventsim.Sim.events_fired sim)
    in
    single ~id:(Printf.sprintf "cdn-edge@%d" (job_seed ctx)) ~wall_s ~acc ~buf
      ~shard:{ epoch_ms = List.rev !epochs; shard_events }
      ~floor_share:(floor_share c (Shard.flow_stats sh))
      ()

(* The same farm on one runner: sharding is byte-identical for any
   shard count, so with the bus off this run must reproduce the sharded
   digest. *)
let cdn_direct ctx mode c =
  let bus = bus_of mode in
  let r = Runner.create_topo ~seed:(job_seed ctx) ?trace:bus c.topo in
  let audit = if audited mode then Some (Runner.attach_audit r) else None in
  let flows =
    List.map
      (fun (route, label, factory) ->
        Runner.add_flow r ~route ~stop:(c.dur -. drain_margin) ~label ~factory)
      c.flows
  in
  let fa = Array.of_list flows in
  fun () ->
    let acc = Job.acc () and buf = Buffer.create 8192 in
    let c0 = Shim.now_ns () in
    guarded buf (fun () ->
        Job.run acc ?bus r ~until:c.dur ~slice:cdn_epoch;
        Option.iter Audit.assert_quiesced audit);
    let wall_s = ms_since c0 /. 1000.0 in
    Job.digest acc buf r flows;
    single ~id:(Printf.sprintf "cdn-edge@%d" (job_seed ctx)) ~wall_s ~acc ~buf
      ~floor_share:(floor_share c (fun i -> Runner.stats fa.(i)))
      ()

let cdn ctx mode =
  let c = cdn_build ctx mode in
  match mode with
  | Measure -> cdn_sharded ?pool:ctx.pool ~paced:true ~audit:true ctx c
  | Plain -> cdn_sharded ~audit:true ctx c
  | No_audit -> cdn_sharded ~audit:false ctx c
  | Traced | Direct -> cdn_direct ctx mode c

(* ---------- registry ---------- *)

(* [setup_batch] set-ups are timed together, so that one timing spans
   a few tens of milliseconds of set-up work on the machine the
   benchmark was sized on. *)
type t = { name : string; prepare : ctx -> mode -> unit -> pass; setup_batch : int }

let all =
  [
    { name = "proteus-dumbbell"; prepare = dumbbell; setup_batch = 400 };
    { name = "scenario-sweep"; prepare = sweep; setup_batch = 8 };
    { name = "cdn-edge"; prepare = cdn; setup_batch = 16 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
