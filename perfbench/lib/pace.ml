(* Host pace. The benchmark runs on a few cores of a shared host, where
   other tenants' load slows memory-bound work such as this simulator's
   by a third or more, for seconds to minutes at a time; processor-bound
   work hardly moves. A fixed reference loop that allocates like the
   simulator does (short-lived blocks on the minor heap, few survivors)
   slows with it: on a 2-vCPU host, 30-second windows whose simulator
   speed differed by 30% differed by 3% once each job was divided by
   the reference time measured next to it.

   So the end-to-end run calls {!tick} between pieces of its work,
   never inside a timed window, and every [every]-th call times the
   reference: the piece of work fixes where, not the clock, so the
   reference's allocations fall at the same points on every run of a
   seed and the top heap repeats. {!scaled} converts a host time to the
   time the same work would take at the reference pace, where the loop
   runs in [reference_ms]. A process that never calls {!tick} (the
   traced run) gets host times back unchanged. *)

let reference_ms = 10.0
let every = 8

(* 300,000 eight-float blocks, the last 64 kept alive: about 2.7 M
   minor words, about ten minor collections, and nothing promoted beyond
   those 64 blocks. *)
let reference () =
  let keep = Array.make 64 [||] in
  for i = 0 to 299_999 do
    keep.(i land 63) <- Array.make 8 (float_of_int i)
  done;
  ignore (Sys.opaque_identity keep)

let calls = ref 0
let last_ms = ref Float.nan
let samples = ref []  (** every reference time, in ms *)

(* Time the reference on the first call and every [every]-th after. *)
let tick () =
  if !calls mod every = 0 then begin
    let c0 = Shim.now_ns () in
    reference ();
    last_ms := float_of_int (Shim.now_ns () - c0) /. 1e6;
    samples := !last_ms :: !samples
  end;
  incr calls

let scaled ms = if Float.is_nan !last_ms then ms else ms *. reference_ms /. !last_ms
