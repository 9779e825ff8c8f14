(* Order statistics shared by the workloads and the diff tool. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array, [p] in (0, 100] — the
   definition Bbc_server.Loadgen reports, so serve-read and serve-walk
   quote the same statistic. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let idx = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

let median xs =
  let a = sorted (Array.of_list xs) in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* (q1, median, q3) exactly as Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so the spreads [diff] reports are
   the ones the acceptance rule in README.md is stated in. *)
let quartiles xs =
  let a = sorted (Array.of_list xs) in
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Growable float buffer for latency samples. *)
module Floats = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let push t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
end
