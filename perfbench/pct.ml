(* Order statistics for per-operation samples.  Quantiles interpolate
   linearly between order statistics (numpy's default), so a median of an
   even count is the mean of the middle pair. *)

let quantile samples q =
  match List.sort compare samples with
  | [] -> invalid_arg "Pct.quantile: no samples"
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (Array.length a - 1) (lo + 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median samples = quantile samples 0.5

(* Samples that lie beyond the [per_mille]/1000 percentile of [n]. *)
let beyond ~per_mille n = n - (((per_mille * n) + 999) / 1000)

(* The [per_mille]/1000 percentile, or [None] when fewer than ten samples
   lie beyond it: a p99 of 500 samples is the fifth-largest value, not a
   tail. *)
let tail ~per_mille samples =
  if beyond ~per_mille (List.length samples) < 10 then None
  else Some (quantile samples (float_of_int per_mille /. 1000.))
