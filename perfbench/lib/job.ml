(* One simulation driven from outside: the runner is stepped in fixed
   sim-time slices so that every public call into the network layer can
   be timed and bracketed by GC counters, and so that an enabled trace
   bus can be drained (and its events counted by kind) before its ring
   wraps. Work counts accumulate into an {!acc} shared by every job of
   one pass over a workload. *)

module Runner = Proteus_net.Runner
module Link = Proteus_net.Link
module Aggregate = Proteus_net.Aggregate
module Flow_stats = Proteus_net.Flow_stats
module Sim = Proteus_eventsim.Sim
module Trace = Proteus_obs.Trace

type acc = {
  mutable sent : int;
  mutable acked : int;
  mutable lost : int;
  mutable dups : int;
  mutable fired : int;
  mutable scheduled : int;
  mutable max_queued : int;
  mutable run_ns : int;  (** host ns inside [Runner.run] *)
  mutable paced_ms : float;  (** the same, at the reference pace (see {!Pace}) *)
  mutable minor_words : float;  (** around [Runner.run] *)
  mutable promoted_words : float;
  mutable major_collections : int;
  mutable sim_s : float;  (** simulated seconds, summed over jobs *)
  mutable mi : int;  (** [Mi_boundary] trace events *)
  mutable decisions : int;  (** [Rate_decision] trace events *)
  mutable utility : int;  (** [Utility_sample] trace events *)
  mutable trace_dropped : int;  (** events lost to ring wraparound *)
  mutable fluid_in : float;
  mutable fluid_shed : float;
  mutable residual_max : float;  (** max |conservation residual|, bytes *)
}

let acc () =
  {
    sent = 0;
    acked = 0;
    lost = 0;
    dups = 0;
    fired = 0;
    scheduled = 0;
    max_queued = 0;
    run_ns = 0;
    paced_ms = 0.0;
    minor_words = 0.0;
    promoted_words = 0.0;
    major_collections = 0;
    sim_s = 0.0;
    mi = 0;
    decisions = 0;
    utility = 0;
    trace_dropped = 0;
    fluid_in = 0.0;
    fluid_shed = 0.0;
    residual_max = 0.0;
  }

(* One bus per process, cleared after every slice: large enough that a
   slice of the busiest workload never wraps it ([trace_dropped] would
   say so). *)
let bus = lazy (Trace.create ~capacity:(1 lsl 18) ())

let drain acc b =
  acc.trace_dropped <- acc.trace_dropped + Trace.dropped b;
  Trace.iter b ~f:(fun (e : Trace.event) ->
      match e.kind with
      | Trace.Mi_boundary -> acc.mi <- acc.mi + 1
      | Trace.Rate_decision -> acc.decisions <- acc.decisions + 1
      | Trace.Utility_sample -> acc.utility <- acc.utility + 1
      | _ -> ());
  Trace.clear b

(* Advance [step] from 0 to [until] in slices, timing each call. With
   [paced], the host pace is sampled between calls ({!Pace.tick}) and
   each call's time is also accumulated at the reference pace. *)
let stepped acc ?bus ?(paced = false) ~until ~slice step =
  let k = ref 1 and fin = ref false in
  while not !fin do
    let h = Float.min (float_of_int !k *. slice) until in
    if paced then Pace.tick ();
    let s0 = Gc.quick_stat () in
    let w0 = Gc.minor_words () in
    let c0 = Shim.now_ns () in
    step h;
    let c1 = Shim.now_ns () in
    let w1 = Gc.minor_words () in
    let s1 = Gc.quick_stat () in
    acc.run_ns <- acc.run_ns + (c1 - c0);
    let ms = float_of_int (c1 - c0) /. 1e6 in
    acc.paced_ms <- acc.paced_ms +. if paced then Pace.scaled ms else ms;
    acc.minor_words <- acc.minor_words +. (w1 -. w0);
    acc.promoted_words <-
      acc.promoted_words +. (s1.promoted_words -. s0.promoted_words);
    acc.major_collections <-
      acc.major_collections + (s1.major_collections - s0.major_collections);
    Option.iter (drain acc) bus;
    if h >= until then fin := true else incr k
  done;
  acc.sim_s <- acc.sim_s +. until

let add_sim acc sim =
  acc.fired <- acc.fired + Sim.events_fired sim;
  acc.scheduled <- acc.scheduled + Sim.events_scheduled sim;
  acc.max_queued <- max acc.max_queued (Sim.max_queued sim)

let run acc ?bus ?paced r ~until ~slice =
  stepped acc ?bus ?paced ~until ~slice (fun h -> Runner.run r ~until:h);
  add_sim acc (Runner.sim r)

(* ---------- wall-clock-free digest lines ---------- *)

let flow_line acc buf label st =
  let sent = Flow_stats.packets_sent st
  and acked = Flow_stats.packets_acked st
  and lost = Flow_stats.packets_lost st
  and dups = Flow_stats.packets_dup_acked st in
  acc.sent <- acc.sent + sent;
  acc.acked <- acc.acked + acked;
  acc.lost <- acc.lost + lost;
  acc.dups <- acc.dups + dups;
  Printf.bprintf buf "flow %s sent %d acked %d lost %d dup %d bytes %.17g\n"
    label sent acked lost dups (Flow_stats.bytes_acked st)

let fluid_line acc buf link agg =
  let bytes_in, bytes_out, shed, backlog = Aggregate.totals agg in
  acc.fluid_in <- acc.fluid_in +. bytes_in;
  acc.fluid_shed <- acc.fluid_shed +. shed;
  acc.residual_max <-
    Float.max acc.residual_max
      (Float.abs (Aggregate.conservation_residual agg));
  Printf.bprintf buf "fluid %d in %.17g out %.17g shed %.17g backlog %.17g\n"
    link bytes_in bytes_out shed backlog

(* Per-flow counters and every fluid ledger of a finished runner. *)
let digest acc buf r flows =
  List.iter (fun f -> flow_line acc buf (Runner.label f) (Runner.stats f)) flows;
  for i = 0 to Runner.num_links r - 1 do
    Option.iter (fluid_line acc buf i) (Link.fluid (Runner.link_at r i))
  done
