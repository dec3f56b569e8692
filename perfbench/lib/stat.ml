(* Order statistics over samples gathered within one benchmark run. *)

(* Linear interpolation between order statistics; [q] in [0, 1]. An
   empty sample (a layer nothing exercised) reads 0. *)
let quantile xs q =
  match xs with
  | [] -> 0.0
  | _ -> Proteus_stats.Descriptive.percentile (Array.of_list xs) ~p:(100.0 *. q)

let median xs = quantile xs 0.5

type summary = { med : float; q1 : float; q3 : float; n : int }

let summarize xs =
  { med = median xs; q1 = quantile xs 0.25; q3 = quantile xs 0.75; n = List.length xs }
