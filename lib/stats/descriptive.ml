(* Left-to-right sums from 0.0, the order of [Array.fold_left], so the
   prefix and whole-array forms agree bit for bit. The loops keep their
   accumulators unboxed: per-MI statistics run without allocating. *)
let mean_prefix xs ~n =
  if n = 0 then invalid_arg "Descriptive.mean: empty";
  if n < 0 || n > Array.length xs then invalid_arg "Descriptive.mean_prefix: n";
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. Array.unsafe_get xs i
  done;
  !s /. float_of_int n

let variance_prefix xs ~n =
  if n = 0 then invalid_arg "Descriptive.variance: empty";
  let m = mean_prefix xs ~n in
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. ((Array.unsafe_get xs i -. m) ** 2.0)
  done;
  !s /. float_of_int n

let stddev_prefix xs ~n = sqrt (variance_prefix xs ~n)
let mean xs = mean_prefix xs ~n:(Array.length xs)
let variance xs = variance_prefix xs ~n:(Array.length xs)
let stddev xs = sqrt (variance xs)

let percentile xs ~p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Descriptive.percentile: p";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let median xs = percentile xs ~p:50.0

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Descriptive.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0)) xs

let jain_index xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.jain_index: empty";
  let s = Array.fold_left ( +. ) 0.0 xs in
  let s2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
  if s2 = 0.0 then 1.0 else s *. s /. (float_of_int n *. s2)

let cdf_points xs =
  let n = Array.length xs in
  if n = 0 then []
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    List.init n (fun i ->
        (sorted.(i), float_of_int (i + 1) /. float_of_int n))
  end

let normalize xs =
  if Array.length xs = 0 then xs
  else begin
    let _, hi = min_max xs in
    if hi = 0.0 then Array.copy xs else Array.map (fun x -> x /. hi) xs
  end
