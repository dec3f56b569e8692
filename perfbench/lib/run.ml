(* Runs one workload for a wall-clock budget,
   checks its outputs and reduces the samples to named metrics.

   With tracing off it repeats the workload's batch job (set-up, then
   run) until the budget is spent, in one child process per slice of
   the work, and reports the end-to-end metrics. With tracing on it
   repeats, in one process, a group of single-domain passes over the
   same model (plain, auditor off with the sender shim, trace bus on;
   plus, on cdn-edge, the farm on one runner and the sharded run on the
   pool) and reports the per-layer metrics. Every pass must
   reproduce the same digest, and, at the default seed, the committed
   golden. *)

module W = Workload

let default_seed = 1

type metric = { name : string; unit : string; better : string }

let m name unit better = { name; unit; better }

(* Declared in BENCHMARK.json in this order; the tests keep the two in
   step. [fail_frac] is not among them: the result carries it as its
   [failed] / [attempted] pair, since a declared metric must never
   read 0. *)
let end_to_end =
  [
    m "setup_s" "s" "lower";
    m "pkts_per_s" "1/s" "higher";
    m "runs_per_s" "1/s" "higher";
    m "run_p50_ms" "ms" "lower";
    m "run_p95_ms" "ms" "lower";
    m "top_heap_mb" "MB" "lower";
  ]

let cc_names = [ "proteus-p"; "proteus-s"; "proteus-h" ]

let per_layer =
  [
    m "sim.events_per_pkt" "count" "lower";
    m "sim.scheduled_per_pkt" "count" "lower";
    m "sim.max_queued" "count" "lower";
    m "net.pkts_sent" "count" "higher";
    m "net.pkts_acked" "count" "higher";
    m "net.pkts_lost" "count" "lower";
    m "net.dup_acks" "count" "lower";
    m "net.useful_ratio" "ratio" "higher";
    m "net.self_ns_per_pkt" "ns" "lower";
  ]
  @ List.concat_map
      (fun p ->
        [
          m (Printf.sprintf "cc.%s.ns_per_ack" p) "ns" "lower";
          m (Printf.sprintf "cc.%s.ns_per_send" p) "ns" "lower";
          m (Printf.sprintf "cc.%s.words_per_ack" p) "words" "lower";
          m (Printf.sprintf "cc.%s.polls_per_send" p) "count" "lower";
        ])
      cc_names
  @ [
      m "core.mi_per_sim_s" "1/s" "lower";
      m "core.rate_decisions" "count" "lower";
      m "core.utility_evals" "count" "lower";
      m "gc.minor_words_per_pkt" "words" "lower";
      m "gc.promoted_words_per_pkt" "words" "lower";
      m "gc.major_collections" "count" "lower";
      m "audit.ns_per_pkt" "ns" "lower";
      m "scenario.load_ms" "ms" "lower";
      m "scenario.expand_ms" "ms" "lower";
      m "scenario.instantiate_ms_p50" "ms" "lower";
      m "scenario.metrics_ms_p50" "ms" "lower";
      m "harness.overhead_ms_p50" "ms" "lower";
      m "harness.journal_bytes" "bytes" "lower";
      m "harness.retries" "count" "lower";
      m "fluid.shed_frac" "ratio" "lower";
      m "fluid.conservation_residual_max" "bytes" "lower";
      m "fluid.fg_floor_share" "ratio" "lower";
      m "shard.events_imbalance" "ratio" "lower";
      m "shard.epoch_ms_p50" "ms" "lower";
      m "shard.epoch_ms_p95" "ms" "lower";
      m "obs.trace_overhead_frac" "ratio" "lower";
    ]

type options = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;
  scenarios : string;
  out_dir : string;
  golden : string option;  (** golden digest file to check against *)
  golden_out : string option;  (** write this run's golden digest here *)
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (metric * Stat.summary) list;  (** in declaration order *)
  report : string list;  (** human-readable lines *)
}

(* ---------- digests ---------- *)

let md5 s = Digest.to_hex (Digest.string s)

let golden_path ~workload = Filename.concat "perfbench/golden" (workload ^ ".txt")

(* A golden file holds one "UNIT-ID MD5" line per digest unit. *)
let load_golden path =
  let ic = open_in path in
  let tbl = Hashtbl.create 512 in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ id; h ] -> Hashtbl.replace tbl id h
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  tbl

let golden_text units =
  String.concat "" (List.map (fun (id, d) -> Printf.sprintf "%s %s\n" id (md5 d)) units)

let digest_text units =
  String.concat "" (List.map (fun (id, d) -> Printf.sprintf "== %s\n%s" id d) units)

let is_failed_unit d = String.length d >= 7 && String.sub d 0 7 = "failed "

(* The first digest of each unit among [passes], in the order met. *)
let first_units (passes : W.pass list) =
  let seen = Hashtbl.create 512 in
  List.concat_map
    (fun (p : W.pass) ->
      List.filter
        (fun (id, _) ->
          let fresh = not (Hashtbl.mem seen id) in
          Hashtbl.replace seen id ();
          fresh)
        p.units)
    passes

(* Failed operations among [passes]: a run that crashed or tripped the
   auditor, a digest that differs from the first of the same unit, or
   one that differs from the golden. *)
let failures ~golden passes =
  let first = Hashtbl.of_seq (List.to_seq (first_units passes)) in
  List.fold_left
    (fun n (p : W.pass) ->
      List.fold_left
        (fun n (id, d) ->
          let bad_golden =
            match golden with
            | None -> false
            | Some g -> Hashtbl.find_opt g id <> Some (md5 d)
          in
          if is_failed_unit d || Hashtbl.find first id <> d || bad_golden then n + 1
          else n)
        n p.units)
    0 passes

(* ---------- helpers ---------- *)

(* cdn-edge shards across a pool of its own; the miniature sizes of the
   tests run it without one. *)
let with_ctx ?slice o f =
  let pool =
    if o.workload.name = "cdn-edge" && not o.quick then
      Some (Proteus_parallel.Pool.create ~jobs:W.cdn_shards)
    else None
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Proteus_parallel.Pool.shutdown pool)
    (fun () ->
      f
        {
          W.seed = o.seed;
          slice;
          quick = o.quick;
          scenarios = o.scenarios;
          out_dir = o.out_dir;
          pool;
          probes = Hashtbl.create 4;
        })

(* Each pass starts from a collected heap, so that garbage left by the
   previous pass does not bill its major-GC work to this one. *)
let pass o c mode =
  Gc.full_major ();
  o.workload.prepare c mode ()

let per x n = if n = 0 then 0.0 else x /. float_of_int n
let top_heap_mb () = float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Set-up time, in seconds per set-up: batches of the workload's
   [setup_batch] set-ups are timed as a whole, each batch after a full
   major collection, for [budget] seconds and never fewer than two
   batches, each at the reference pace (see {!Pace}). *)
let setup_times o c ~budget =
  let t0 = Unix.gettimeofday () in
  let k = o.workload.setup_batch in
  let rec go n acc =
    if n >= 2 && Unix.gettimeofday () -. t0 > budget then acc
    else begin
      Gc.full_major ();
      Pace.tick ();
      let c0 = Shim.now_ns () in
      for _ = 1 to k do
        let (_ : unit -> W.pass) = Sys.opaque_identity (o.workload.prepare c W.Measure) in
        ()
      done;
      let ms = Pace.scaled (float_of_int (Shim.now_ns () - c0) /. 1e6) in
      go (n + 1) ((ms /. 1e3 /. float_of_int k) :: acc)
    end
  in
  go 0 []

(* Repeat [f] while another repetition, at the mean length of those so
   far, still ends within [seconds]; always at least [min] times. *)
let repeat ~seconds ~min f =
  let t0 = Unix.gettimeofday () in
  let rec go n acc =
    let elapsed = Unix.gettimeofday () -. t0 in
    if n >= min && elapsed +. (elapsed /. float_of_int n) > seconds then List.rev acc
    else go (n + 1) (f () :: acc)
  in
  let first = f () in
  go 1 [ first ]

(* ---------- end-to-end (tracing off) ---------- *)

(* The tail percentile reported as run_p95_ms: the 95th when at least
   ten samples lie beyond it, else the highest percentile that has ten
   beyond it, but never below the median. So a job timed only a dozen
   times reports its median rather than its slowest run. *)
let tail_quantile n = Float.max 0.5 (Float.min 0.95 (1.0 -. (10.0 /. float_of_int n)))

(* Run [f] in a child process and leave its result in [file] for
   {!collect}. The parent reads no result until every child has ended:
   each child inherits the parent's heap, so a parent holding earlier
   children's results would raise later children's top heap. *)
let in_child file (f : unit -> 'a) =
  if Sys.file_exists file then Sys.remove file;
  match Unix.fork () with
  | 0 ->
      let r : ('a, string) Stdlib.result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      Out_channel.with_open_bin file (fun oc -> Marshal.to_channel oc r []);
      Unix._exit 0
  | pid -> ignore (Unix.waitpid [] pid)

let collect file : 'a =
  let r : ('a, string) Stdlib.result =
    try In_channel.with_open_bin file Marshal.from_channel
    with End_of_file | Failure _ | Sys_error _ -> Error "child died"
  in
  if Sys.file_exists file then Sys.remove file;
  match r with Ok x -> x | Error e -> failwith ("perfbench: child process: " ^ e)

type part = {
  passes : W.pass list;
  top_heap : float;  (** MB *)
  setups : float list;  (** s per set-up, one per batch *)
  pace : float list;  (** reference loop times, ms *)
}

(* Child [k] runs slice [k] of the work (see {!W.slices}) for an equal
   share of the budget, then times set-ups for its share of two seconds.
   Its top heap is read after its first job, so that it depends neither
   on how many jobs fit in the share nor on the set-ups. *)
let slice o k () =
  with_ctx ~slice:k o (fun c ->
      let n = float_of_int W.slices in
      let top_heap = ref None in
      let passes =
        repeat ~seconds:(o.seconds /. n) ~min:1 (fun () ->
            let p = pass o c W.Measure in
            if !top_heap = None then top_heap := Some (top_heap_mb ());
            p)
      in
      let setups = setup_times o c ~budget:(Float.min 2.0 o.seconds /. n) in
      { passes; top_heap = Option.get !top_heap; setups; pace = !Pace.samples })

(* Every slice and every simulation counts once, whatever number of
   repetitions fit in the budget: rates are medians over children of
   each child's median job, and host time per simulation (a sweep
   instance, or the job on one slice's seed) is the median of its
   repetitions before the percentiles are taken across simulations.
   Every time is at the reference pace (see {!Pace}), which the
   children sample as they go; the report gives the pace samples. *)
let measure o =
  let file k = Filename.concat o.out_dir (Printf.sprintf "child%d.bin" k) in
  List.iter (fun k -> in_child (file k) (slice o k)) (List.init W.slices Fun.id);
  let parts : part list = List.init W.slices (fun k -> collect (file k)) in
  let passes = List.concat_map (fun p -> p.passes) parts in
  let setups = List.concat_map (fun p -> p.setups) parts in
  let rate f =
    List.map
      (fun p -> Stat.median (List.map (fun (q : W.pass) -> f q /. q.paced_s) p.passes))
      parts
  in
  let reps = Hashtbl.create 512 and order = ref [] in
  List.iter
    (fun (p : W.pass) ->
      List.iter2
        (fun (id, _) ms ->
          match Hashtbl.find_opt reps id with
          | Some l -> Hashtbl.replace reps id (ms :: l)
          | None ->
              order := id :: !order;
              Hashtbl.replace reps id [ ms ])
        p.units p.run_ms)
    passes;
  let run_ms = List.rev_map (fun id -> Stat.median (Hashtbl.find reps id)) !order in
  let runs = Stat.summarize run_ms in
  let v =
    [
      Stat.summarize setups;
      Stat.summarize (rate (fun p -> float_of_int p.acc.acked));
      Stat.summarize (rate (fun p -> float_of_int p.runs));
      runs;
      { runs with med = Stat.quantile run_ms (tail_quantile (List.length run_ms)) };
      Stat.summarize (List.map (fun p -> p.top_heap) parts);
    ]
  in
  (passes, List.combine end_to_end v, Stat.summarize (List.concat_map (fun p -> p.pace) parts))

(* ---------- per-layer (tracing on) ---------- *)

type group = {
  plain : W.pass;
  no_audit : W.pass;  (** auditor off, sender shim on *)
  traced : W.pass;
  direct : W.pass option;  (** cdn-edge: the farm on one runner *)
  sharded : W.pass option;  (** cdn-edge: the end-to-end run *)
  probes : (string * Shim.probe) list;  (** the shim, in [no_audit] *)
}

let layer_values ov (g : group) =
  let p = g.plain and b = g.no_audit and t = g.traced in
  let acked = p.acc.acked in
  let sum f = List.fold_left (fun s (_, pr) -> s +. f ov pr) 0.0 g.probes in
  let cc_ns = sum Shim.cc_ns and shim_ns = sum Shim.overhead_ns in
  (* The pass the traced one differs from only in the trace bus. *)
  let untraced = Option.value g.direct ~default:p in
  let cc name =
    match List.assoc_opt name g.probes with
    | None -> [ 0.0; 0.0; 0.0; 0.0 ]
    | Some pr ->
        let sends = pr.calls.(Shim.sent) in
        [
          per (Shim.slot_ns ov pr Shim.ack) pr.calls.(Shim.ack);
          per (Shim.slot_ns ov pr Shim.sent +. Shim.slot_ns ov pr Shim.poll) sends;
          per (Shim.ack_words ov pr) pr.calls.(Shim.ack);
          per (float_of_int pr.calls.(Shim.poll)) sends;
        ]
  in
  let sw f = match p.sweep with Some s -> f s | None -> 0.0 in
  let sh f = match g.sharded with Some { shard = Some s; _ } -> f s | _ -> 0.0 in
  let fi = float_of_int in
  [
    per (fi p.acc.fired) acked;
    per (fi p.acc.scheduled) acked;
    fi p.acc.max_queued;
    fi p.acc.sent;
    fi acked;
    fi p.acc.lost;
    fi p.acc.dups;
    per (fi acked) p.acc.sent;
    per (Float.max 0.0 (fi b.acc.run_ns -. shim_ns -. cc_ns)) acked;
  ]
  @ List.concat_map cc cc_names
  @ [
      (if t.acc.sim_s > 0.0 then fi t.acc.mi /. t.acc.sim_s else 0.0);
      fi t.acc.decisions;
      fi t.acc.utility;
      per p.acc.minor_words acked;
      per p.acc.promoted_words acked;
      fi p.acc.major_collections;
      per (Float.max 0.0 (fi p.acc.run_ns -. (fi b.acc.run_ns -. shim_ns))) acked;
      sw (fun s -> s.load_ms);
      sw (fun s -> s.expand_ms);
      sw (fun s -> Stat.median s.instantiate_ms);
      sw (fun s -> Stat.median s.metrics_ms);
      sw (fun s -> Stat.median s.overhead_ms);
      sw (fun s -> fi s.journal_bytes);
      sw (fun s -> fi s.retries);
      (if p.acc.fluid_in > 0.0 then p.acc.fluid_shed /. p.acc.fluid_in else 0.0);
      p.acc.residual_max;
      p.floor_share;
      sh (fun s ->
          let ev = List.map fi s.shard_events in
          List.fold_left Float.max 0.0 ev
          /. (List.fold_left ( +. ) 0.0 ev /. fi (List.length ev)));
      sh (fun s -> Stat.quantile s.epoch_ms 0.5);
      sh (fun s -> Stat.quantile s.epoch_ms 0.95);
      (t.wall_s -. untraced.wall_s) /. untraced.wall_s;
    ]

(* The deterministic ledger: counts that must repeat exactly between
   two passes of the same code, mode and seed. *)
let ledger (p : W.pass) =
  let a = p.acc in
  Printf.sprintf "sent %d acked %d lost %d dups %d fired %d scheduled %d words %.17g"
    a.sent a.acked a.lost a.dups a.fired a.scheduled a.minor_words

let traced o =
  with_ctx o @@ fun c ->
  let ov = Shim.calibrate () in
  let pass = pass o c in
  let cdn = o.workload.name = "cdn-edge" in
  let groups =
    repeat ~seconds:o.seconds ~min:2 (fun () ->
        let plain = pass W.Plain in
        Hashtbl.reset c.W.probes;
        let no_audit = pass W.No_audit in
        let probes =
          List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) c.W.probes [])
        in
        let direct = if cdn then Some (pass W.Direct) else None in
        let traced = pass W.Traced in
        let sharded = if cdn then Some (pass W.Measure) else None in
        { plain; no_audit; traced; direct; sharded; probes })
  in
  let first = List.hd groups in
  let ledger_breaks =
    List.length
      (List.filter
         (fun g ->
           ledger g.plain <> ledger first.plain
           || g.traced.acc.mi <> first.traced.acc.mi
           || g.traced.acc.decisions <> first.traced.acc.decisions)
         groups)
  in
  (* A traced pass whose ring wrapped lost events: its counts are void. *)
  let dropped = List.length (List.filter (fun g -> g.traced.acc.trace_dropped > 0) groups) in
  let cols = List.map (layer_values ov) groups in
  let values =
    List.mapi (fun i m -> (m, Stat.summarize (List.map (fun col -> List.nth col i) cols))) per_layer
  in
  let classes =
    [
      ( "",
        List.concat_map
          (fun g -> (g.plain :: Option.to_list g.direct) @ Option.to_list g.sharded)
          groups );
      ("the auditor off", List.map (fun g -> g.no_audit) groups);
      ("tracing on", List.map (fun g -> g.traced) groups);
    ]
  in
  (classes, values, ledger_breaks + dropped)

(* ---------- entry point ---------- *)

let execute o =
  mkdir_p o.out_dir;
  let classes, values, extra_failures, pace =
    if o.trace then
      let classes, values, extra = traced o in
      (classes, values, extra, None)
    else
      let passes, values, pace = measure o in
      ([ ("", passes) ], values, 0, Some pace)
  in
  let reference = first_units (snd (List.hd classes)) in
  let golden =
    match o.golden with
    | Some path when Sys.file_exists path -> Some (load_golden path)
    | Some _ -> Some (Hashtbl.create 1)
    | None -> None
  in
  let passes = List.concat_map snd classes in
  let attempted = List.fold_left (fun n (p : W.pass) -> n + p.runs) 0 passes in
  (* Passes with the auditor off or the trace bus on are checked against
     their own kind, not against the golden: both the auditor and the
     bus read link backlogs, which syncs fluid aggregates at extra
     instants and can move fluid ledgers in their last bits. The report
     counts the digest units where that happened. *)
  let failed =
    extra_failures
    + List.fold_left ( + ) (failures ~golden (snd (List.hd classes)))
        (List.map (fun (_, cls) -> failures ~golden:None cls) (List.tl classes))
  in
  let divergence (what, cls) =
    let ids =
      List.filter_map
        (fun (id, d) -> if List.assoc_opt id reference <> Some d then Some id else None)
        (first_units cls)
    in
    Printf.sprintf "digest units that differ with %s: %d%s" what (List.length ids)
      (match ids with [] -> "" | id :: _ -> " (first: " ^ id ^ ")")
  in
  let text = digest_text reference in
  let base = Printf.sprintf "%s-seed%d" o.workload.name o.seed in
  Out_channel.with_open_bin (Filename.concat o.out_dir (base ^ ".digest")) (fun oc ->
      output_string oc text);
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc (golden_text reference)))
    o.golden_out;
  let report =
    Printf.sprintf "workload %s | seed %d | trace %d | passes %d | runs %d"
      o.workload.name o.seed (Bool.to_int o.trace) (List.length passes) attempted
    :: List.map
         (fun (mt, (s : Stat.summary)) ->
           Printf.sprintf "%-32s %14.6g %-6s (q1 %.6g, q3 %.6g, n %d)" mt.name s.med
             mt.unit s.q1 s.q3 s.n)
         values
    @ List.map divergence (List.tl classes)
    @ (match pace with
      | None -> []
      | Some (s : Stat.summary) ->
          [
            Printf.sprintf "%-32s %14.6g %-6s (q1 %.6g, q3 %.6g, n %d; %g ms at the reference pace)"
              "host pace: reference loop" s.med "ms" s.q1 s.q3 s.n Pace.reference_ms;
          ])
    @ [
        Printf.sprintf "%-32s %14.6g %-6s (%d failed of %d)" "fail_frac"
          (per (float_of_int failed) attempted)
          "ratio" failed attempted;
        Printf.sprintf "digest %s (%s)" (md5 text)
          (match o.golden with
          | None -> "not checked against a golden"
          | Some g -> "checked against " ^ g);
      ]
  in
  { correct = failed = 0; attempted; failed; values; report }

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (mt, (s : Stat.summary)) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" mt.name
              (json_num s.med) mt.unit)
          r.values))
