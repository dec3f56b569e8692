type t = { state : Random.State.t; mutable splits : int; seed : int }

let create ~seed = { state = Random.State.make [| seed |]; splits = 0; seed }

let split t =
  t.splits <- t.splits + 1;
  (* Mix the parent seed with the split index so child streams are stable
     under unrelated draws on the parent. *)
  create ~seed:(t.seed * 1_000_003 + (t.splits * 7919) + 17)

(* Keyed child streams: unlike [split], the derivation ignores the
   parent's split counter, so a task keyed [k] gets the same stream no
   matter how many siblings were derived before it — the property the
   fault-sweep harness relies on to stay bit-identical under `--jobs N`
   reordering of task setup. The multiplier differs from [split]'s so
   the two families cannot collide on small keys. *)
let split_at t ~key = create ~seed:(t.seed * 999_983 + (key * 6_700_417) + 29)

(* [Random.State.float]'s draw, rewritten so that it inlines: the
   stdlib's recursive [rawfloat] returns a boxed float on every call.
   Same bits consumed, same result: the top 53 bits of the next 64-bit
   output, redrawn while they are all zero. *)
let[@inline] unit_float t =
  let n = ref (Int64.shift_right_logical (Random.State.bits64 t.state) 11) in
  while !n = 0L do
    n := Int64.shift_right_logical (Random.State.bits64 t.state) 11
  done;
  Int64.to_float !n *. 0x1.p-53

let[@inline] float t bound = unit_float t *. bound
let int t bound = Random.State.int t.state bound
let bool t = Random.State.bool t.state
let[@inline] bernoulli t ~p = p > 0. && unit_float t < p
let[@inline] uniform t ~lo ~hi = lo +. float t (hi -. lo)

let[@inline] exponential t ~mean =
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let[@inline] gaussian t ~mu ~sigma =
  let u1 = 1.0 -. unit_float t in
  let u2 = unit_float t in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let[@inline] pareto t ~shape ~scale =
  let u = 1.0 -. unit_float t in
  scale /. (u ** (1.0 /. shape))
