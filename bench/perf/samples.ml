(* Growable float sample buffers and the order statistics dwperf reports.

   Percentiles are exact nearest-rank values over every sample taken, not
   the log-bucketed histogram approximations of Dw_util.Metrics: a
   benchmark's tail has to read the same way on every run of the same
   samples. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 1024 0.0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let length t = t.len

let sorted t =
  let a = Array.sub t.data 0 t.len in
  Array.sort Float.compare a;
  a

(* nearest rank: the smallest sample with at least [q] of all samples at
   or below it; 0 for no samples *)
let rank_of sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let percentile t q = rank_of (sorted t) q

(* quartiles as Python's [statistics.quantiles(values, n=4)] gives them
   (its default "exclusive" method), so run-to-run spreads printed here
   match the ones an external check computes; needs two or more values *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0.0)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 2, cut 3)
  end
