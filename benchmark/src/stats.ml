(* Order statistics for latency samples and run-to-run spread. *)

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median values =
  let s = sorted_copy values in
  let n = Array.length s in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let mean values =
  let n = Array.length values in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0. values /. float_of_int n

(* The first and third quartiles exactly as Python's
   [statistics.quantiles(values, n=4)] computes them (the default
   "exclusive" method), so spreads reported here match a check written
   against that function. *)
let quartiles values =
  let s = sorted_copy values in
  let n = Array.length s in
  if n = 0 then (Float.nan, Float.nan)
  else if n = 1 then (s.(0), s.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 3)

(* Interquartile range as a share of the median: the run-to-run spread a
   bound is compared against. *)
let iqr_share values =
  let q1, q3 = quartiles values in
  let med = median values in
  if med = 0. then if q3 -. q1 = 0. then 0. else Float.infinity
  else (q3 -. q1) /. Float.abs med

(* Nearest-rank percentile of an ascending array: the smallest sample with
   at least [p]% of the samples at or below it. *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    (* The epsilon absorbs float error in [p * n / 100] so an exact rank
       does not round up to the next sample. *)
    let rank = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

type tail = { pct : float; value : int; samples : int }

(* The highest percentile, at most [want], that still has at least ten
   samples beyond it — a p99 needs 1000 samples.  With ten samples or
   fewer no tail is supported and the median stands in. *)
let tail ~want samples =
  let sorted = Array.copy samples in
  Array.sort Int.compare sorted;
  let n = Array.length sorted in
  if n <= 10 then { pct = 50.; value = nearest_rank sorted 50.; samples = n }
  else
    let limit = 100. *. float_of_int (n - 10) /. float_of_int n in
    let pct = Float.min want limit in
    { pct; value = nearest_rank sorted pct; samples = n }
