type data =
  | Uniform of { k : int }
  | General of {
      weight : int array array;
      cost : int array array;
      length : int array array;
      budget : int array;
    }

type t = { size : int; data : data; penalty : int }


let check_table name n table =
  if Array.length table <> n then
    invalid_arg (Printf.sprintf "Instance.general: %s has %d rows, expected %d" name (Array.length table) n);
  Array.iter
    (fun row ->
      if Array.length row <> n then
        invalid_arg (Printf.sprintf "Instance.general: ragged %s table" name))
    table

(* Every node cost the library folds is at most (n - 1) * max_weight * M
   (n - 1 weighted terms, each distance at most M), and a social cost
   sums n of them.  So n * (n - 1) * max_weight * M must not exceed
   OCaml's max_int (2^62 - 1): social costs cannot wrap, and node costs
   stay below 2^62 / n, so Best_response's row kernel can sum their
   tagged words without overflow.  The test divides instead of
   multiplying, which would overflow. *)
let check_cost_bound name n max_weight penalty =
  if
    max_weight > 0
    && (n - 1 > max_int / n
       || max_weight > max_int / (n * (n - 1))
       || penalty > max_int / (n * (n - 1) * max_weight))
  then
    invalid_arg
      (Printf.sprintf
         "Instance.%s: n * (n - 1) * max weight * penalty = %d * %d * %d * %d reaches 2^62"
         name n (n - 1) max_weight penalty)

(* Unit weights and the default penalty M = 4n: every social cost is at
   most n * (n - 1) * 4n, so n itself is bounded (by 2^20).  4n must fit
   before the bound can test it. *)
let uniform ~n ~k =
  if n < 2 then invalid_arg "Instance.uniform: n must be >= 2";
  if k < 1 || k > n - 1 then invalid_arg "Instance.uniform: need 1 <= k <= n - 1";
  if n > max_int / 4 then
    invalid_arg (Printf.sprintf "Instance.uniform: penalty 4 * %d reaches 2^62" n);
  check_cost_bound "uniform" n 1 (4 * n);
  { size = n; data = Uniform { k }; penalty = 4 * n }

let general ?penalty ~weight ~cost ~length ~budget () =
  let n = Array.length weight in
  if n < 2 then invalid_arg "Instance.general: need at least 2 nodes";
  check_table "weight" n weight;
  check_table "cost" n cost;
  check_table "length" n length;
  if Array.length budget <> n then invalid_arg "Instance.general: budget length mismatch";
  let max_len = ref 1 and max_weight = ref 0 in
  for u = 0 to n - 1 do
    if budget.(u) < 0 then invalid_arg "Instance.general: negative budget";
    for v = 0 to n - 1 do
      if u <> v then begin
        if weight.(u).(v) < 0 then invalid_arg "Instance.general: negative weight";
        if weight.(u).(v) > !max_weight then max_weight := weight.(u).(v);
        if cost.(u).(v) < 0 then invalid_arg "Instance.general: negative cost";
        if length.(u).(v) < 1 then invalid_arg "Instance.general: length must be >= 1";
        if length.(u).(v) > !max_len then max_len := length.(u).(v)
      end
    done
  done;
  let penalty =
    match penalty with Some m -> m | None -> (2 * n * !max_len) + 1
  in
  if penalty <= n * !max_len then
    invalid_arg "Instance.general: penalty must exceed n * max length";
  check_cost_bound "general" n !max_weight penalty;
  { size = n; data = General { weight; cost; length; budget }; penalty }

let of_weights ?penalty ~k weight =
  let n = Array.length weight in
  let ones () = Array.init n (fun _ -> Array.make n 1) in
  general ?penalty ~weight ~cost:(ones ()) ~length:(ones ())
    ~budget:(Array.make n k) ()

let n t = t.size

let weight t u v =
  match t.data with Uniform _ -> 1 | General g -> g.weight.(u).(v)

let weight_row t u =
  match t.data with Uniform _ -> None | General g -> Some g.weight.(u)

let cost t u v = match t.data with Uniform _ -> 1 | General g -> g.cost.(u).(v)

let length t u v =
  match t.data with Uniform _ -> 1 | General g -> g.length.(u).(v)

let budget t u = match t.data with Uniform { k } -> k | General g -> g.budget.(u)

let penalty t = t.penalty

let uniform_k t = match t.data with Uniform { k } -> Some k | General _ -> None

let max_length t =
  match t.data with
  | Uniform _ -> 1
  | General g ->
      let m = ref 1 in
      for u = 0 to t.size - 1 do
        for v = 0 to t.size - 1 do
          if u <> v && g.length.(u).(v) > !m then m := g.length.(u).(v)
        done
      done;
      !m

let max_weight t =
  match t.data with
  | Uniform _ -> 1
  | General g ->
      let m = ref 0 in
      Array.iteri
        (fun u row -> Array.iteri (fun v w -> if u <> v && w > !m then m := w) row)
        g.weight;
      !m

let with_penalty t penalty =
  if penalty <= t.size * max_length t then
    invalid_arg "Instance.with_penalty: penalty must exceed n * max length";
  check_cost_bound "with_penalty" t.size (max_weight t) penalty;
  { t with penalty }

let pp fmt t =
  match t.data with
  | Uniform { k } -> Format.fprintf fmt "uniform(n=%d, k=%d, M=%d)" t.size k t.penalty
  | General _ -> Format.fprintf fmt "general(n=%d, M=%d)" t.size t.penalty
