(* Exact order statistics over raw samples.  Latencies are never read
   from Obs.Histogram buckets here: a bucket bound is an upper estimate
   that can sit up to 19% above the true quantile. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of a sorted array: the smallest sample with at
   least [q] of the samples at or below it. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (r - 1)))

let quantile a q = quantile_sorted (sorted a) q

let median l =
  match l with [] -> nan | _ -> quantile (Array.of_list l) 0.5

let mean a =
  let n = Array.length a in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int n

let max_of a = Array.fold_left Float.max 0. a

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* Wall clock: monotonic, nanosecond resolution, in seconds. *)
let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
