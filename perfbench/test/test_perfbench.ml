(* Tests of the benchmark itself: its metric names against
   BENCHMARK.json, its digest check, and the cdn-edge envelope. *)

module Run = Perfbench.Run
module W = Perfbench.Workload

(* ---------- a small JSON reader, enough for BENCHMARK.json ---------- *)

type json = Obj of (string * json) list | Arr of json list | Str of string | Other

let parse s =
  let pos = ref 0 in
  let peek () = s.[!pos] in
  let rec ws () =
    if !pos < String.length s && String.contains " \n\r\t" (peek ()) then begin
      incr pos;
      ws ()
    end
  in
  let expect c =
    ws ();
    if peek () <> c then failwith (Printf.sprintf "json: expected %c at %d" c !pos);
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if peek () = '\\' then incr pos;
      Buffer.add_char b (peek ());
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        Obj (members ())
    | '[' ->
        incr pos;
        Arr (elements ())
    | '"' -> Str (str ())
    | _ ->
        while not (String.contains ",}] \n" (peek ())) do
          incr pos
        done;
        Other
  and members () =
    ws ();
    if peek () = '}' then (incr pos; [])
    else
      let k = str () in
      expect ':';
      let v = value () in
      ws ();
      if peek () = ',' then (incr pos; (k, v) :: members ())
      else (expect '}'; [ (k, v) ])
  and elements () =
    ws ();
    if peek () = ']' then (incr pos; [])
    else
      let v = value () in
      ws ();
      if peek () = ',' then (incr pos; v :: elements ())
      else (expect ']'; [ v ])
  in
  value ()

let field k = function
  | Obj kvs -> ( match List.assoc_opt k kvs with Some v -> v | None -> failwith ("no " ^ k))
  | _ -> failwith ("not an object, looking for " ^ k)

let str = function Str s -> s | _ -> failwith "not a string"
let arr = function Arr l -> l | _ -> failwith "not an array"

let declared section =
  let j = parse (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) in
  List.map
    (fun m -> (str (field "name" m), str (field "unit" m), str (field "better" m)))
    (arr (field section j))

(* ---------- helpers ---------- *)

(* Scratch files stay in the test's own build directory. *)
let tmp = "_out"
let () = if not (Sys.file_exists tmp) then Sys.mkdir tmp 0o755

let opts ?golden ?golden_out ?(seconds = 0.01) ?(quick = true) ?(seed = Run.default_seed)
    ~trace name =
  {
    Run.workload = Option.get (W.find name);
    seed;
    seconds;
    trace;
    quick;
    scenarios = "../../scenarios";
    out_dir = tmp;
    golden;
    golden_out;
  }

let printed_names (r : Run.result) =
  match field "metrics" (parse (Run.json r)) with
  | Obj kvs -> List.map fst kvs
  | _ -> failwith "metrics is not an object"

(* ---------- tests ---------- *)

let test_declarations () =
  let decl ms = List.map (fun (m : Run.metric) -> (m.name, m.unit, m.better)) ms in
  Alcotest.(check (list (triple string string string)))
    "end_to_end" (declared "end_to_end") (decl Run.end_to_end);
  Alcotest.(check (list (triple string string string)))
    "per_layer" (declared "per_layer") (decl Run.per_layer);
  let workloads =
    List.map (fun w -> str (field "name" w))
      (arr (field "workloads" (parse (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all))))
  in
  Alcotest.(check (list string)) "workloads" workloads
    (List.map (fun (w : W.t) -> w.name) W.all)

let test_printed_names name trace () =
  let r = Run.execute (opts ~trace name) in
  Alcotest.(check bool) "correct" true r.correct;
  let section = if trace then "per_layer" else "end_to_end" in
  Alcotest.(check (list string))
    "printed = declared"
    (List.map (fun (n, _, _) -> n) (declared section))
    (printed_names r)

let test_planted_mismatch () =
  let golden = Filename.concat tmp "golden.txt" in
  let clean = Run.execute (opts ~trace:false ~golden_out:golden "proteus-dumbbell") in
  Alcotest.(check int) "no golden, no failure" 0 clean.failed;
  let matched = Run.execute (opts ~trace:false ~golden "proteus-dumbbell") in
  Alcotest.(check int) "own golden matches" 0 matched.failed;
  let ids =
    List.filter_map
      (fun l -> match String.split_on_char ' ' l with [ id; _ ] -> Some id | _ -> None)
      (In_channel.with_open_bin golden In_channel.input_lines)
  in
  Alcotest.(check int) "one golden line per slice" W.slices (List.length ids);
  Out_channel.with_open_bin golden (fun oc ->
      List.iter (fun id -> Printf.fprintf oc "%s %s\n" id (String.make 32 '0')) ids);
  let planted = Run.execute (opts ~trace:false ~golden "proteus-dumbbell") in
  Alcotest.(check bool) "planted: not correct" false planted.correct;
  Alcotest.(check int) "planted: every run failed" planted.attempted planted.failed

(* The shim rides on the auditor-off pass: controller time is measured
   and the network's own time left after removing it stays positive. *)
let test_layer_times () =
  let r = Run.execute (opts ~trace:true "proteus-dumbbell") in
  let value name =
    match List.find_opt (fun ((m : Run.metric), _) -> m.name = name) r.values with
    | Some (_, (s : Perfbench.Stat.summary)) -> s.med
    | None -> Alcotest.failf "no metric %s" name
  in
  List.iter
    (fun name ->
      if not (value name > 0.0) then Alcotest.failf "%s = %g, not positive" name (value name))
    [ "net.self_ns_per_pkt"; "cc.proteus-p.ns_per_ack"; "cc.proteus-s.ns_per_send" ]

(* Host times pass unscaled until the reference loop has been timed,
   as in the traced run; then by the reference time over the latest
   loop time. Runs before anything else in this process ticks. *)
let test_pace () =
  let module P = Perfbench.Pace in
  Alcotest.(check (float 0.0)) "unscaled before a tick" 42.0 (P.scaled 42.0);
  P.tick ();
  Alcotest.(check int) "one timing" 1 (List.length !P.samples);
  let last = List.hd !P.samples in
  Alcotest.(check bool) "loop timed" true (last > 0.0);
  Alcotest.(check (float 1e-9)) "scaled" (42.0 *. P.reference_ms /. last) (P.scaled 42.0);
  for _ = 2 to P.every do
    P.tick ()
  done;
  Alcotest.(check int) "one timing in [every] calls" 1 (List.length !P.samples);
  P.tick ();
  Alcotest.(check int) "the next one on the call after" 2 (List.length !P.samples)

(* The retuned envelopes keep the foreground off the 5% service floor. *)
let floor_bound = 0.1

let test_off_the_floor () =
  for k = 0 to W.slices - 1 do
    let ctx =
      {
        W.seed = Run.default_seed;
        slice = Some k;
        quick = false;
        scenarios = "../../scenarios";
        out_dir = tmp;
        pool = None;
        probes = Hashtbl.create 1;
      }
    in
    let p = W.cdn ctx W.Measure () in
    Alcotest.(check bool) "no failure" false (Run.is_failed_unit (snd (List.hd p.units)));
    if not (p.floor_share < floor_bound) then
      Alcotest.failf "slice %d: fg_floor_share %.3f >= %.2f" k p.floor_share floor_bound
  done

let () =
  let names =
    List.concat_map
      (fun (w : W.t) ->
        [
          Alcotest.test_case (w.name ^ " end-to-end names") `Quick
            (test_printed_names w.name false);
          Alcotest.test_case (w.name ^ " per-layer names") `Quick
            (test_printed_names w.name true);
        ])
      W.all
  in
  Alcotest.run "perfbench"
    [
      ("pace", [ Alcotest.test_case "reference scaling" `Quick test_pace ]);
      ("declared", Alcotest.test_case "BENCHMARK.json matches" `Quick test_declarations :: names);
      ("digest", [ Alcotest.test_case "planted mismatch fails" `Quick test_planted_mismatch ]);
      ("traced", [ Alcotest.test_case "layer times positive" `Quick test_layer_times ]);
      ("cdn-edge", [ Alcotest.test_case "foreground off the floor" `Slow test_off_the_floor ]);
    ]
