(* perfbench: the simulator's benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Run from the repository root. Prints one metric per line (median,
   quartiles, sample count), then the result as a JSON object on the
   last line of standard output. Exits 0 when every output checked out,
   1 when some did not, 2 on a usage error. At the default seed the
   digest is checked against the committed golden; [--write-golden]
   rewrites that golden from the run. *)

module Run = Perfbench.Run
module W = Perfbench.Workload

let usage =
  "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--write-golden]\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all)

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref (-1) in
  let write_golden = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S wall-clock seconds to measure (>= 1)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or traced per-layer run (1)");
      ( "--write-golden",
        Arg.Set write_golden,
        Printf.sprintf " rewrite the committed golden from this run (--seed %d only)"
          Run.default_seed );
    ]
  in
  let die msg =
    prerr_endline ("bench: " ^ msg);
    prerr_endline (Arg.usage_string spec usage);
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> die ("unexpected argument " ^ a)) usage
   with Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     exit 2);
  let w = match W.find !workload with Some w -> w | None -> die "unknown or missing --workload" in
  let seed = match !seed with Some s -> s | None -> die "missing --seed" in
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !write_golden && seed <> Run.default_seed then
    die (Printf.sprintf "--write-golden needs --seed %d" Run.default_seed);
  let scenarios = "scenarios" in
  if not (Sys.file_exists scenarios && Sys.is_directory scenarios) then
    die "no scenario corpus at scenarios (run from the repository root)";
  let golden = Run.golden_path ~workload:w.name in
  let r =
    Run.execute
      {
        Run.workload = w;
        seed;
        seconds = float_of_int !seconds;
        trace = !trace = 1;
        quick = false;
        scenarios;
        out_dir = "perfbench/_run";
        golden = (if seed = Run.default_seed && not !write_golden then Some golden else None);
        golden_out = (if !write_golden then Some golden else None);
      }
  in
  List.iter print_endline r.report;
  print_endline (Run.json r);
  exit (if r.correct then 0 else 1)
