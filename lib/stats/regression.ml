type fit = { slope : float; intercept : float; residual_rms : float }

(* Sums run left to right from 0.0 (the order [Array.fold_left] used),
   in loops whose float accumulators stay unboxed. *)
let fit_prefix ~x ~y ~n =
  if n = 0 then invalid_arg "Regression.fit: length mismatch or empty";
  if n < 0 || n > Array.length x || n > Array.length y then
    invalid_arg "Regression.fit_prefix: n";
  let nf = float_of_int n in
  let sx = ref 0.0 and sy = ref 0.0 in
  for i = 0 to n - 1 do
    sx := !sx +. Array.unsafe_get x i
  done;
  for i = 0 to n - 1 do
    sy := !sy +. Array.unsafe_get y i
  done;
  let mx = !sx /. nf in
  let my = !sy /. nf in
  let sxx = ref 0.0 and sxy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = Array.unsafe_get x i -. mx in
    sxx := !sxx +. (dx *. dx);
    sxy := !sxy +. (dx *. (Array.unsafe_get y i -. my))
  done;
  let slope = if !sxx = 0.0 then 0.0 else !sxy /. !sxx in
  let intercept = my -. (slope *. mx) in
  let ss_res = ref 0.0 in
  for i = 0 to n - 1 do
    let r = Array.unsafe_get y i -. (intercept +. (slope *. Array.unsafe_get x i)) in
    ss_res := !ss_res +. (r *. r)
  done;
  { slope; intercept; residual_rms = sqrt (!ss_res /. nf) }

let fit ~x ~y =
  if Array.length y <> Array.length x then
    invalid_arg "Regression.fit: length mismatch or empty";
  fit_prefix ~x ~y ~n:(Array.length x)

let slope_of_indexed ys =
  let x = Array.init (Array.length ys) (fun i -> float_of_int (i + 1)) in
  (fit ~x ~y:ys).slope
