(* [bbc_bench diff A.json... -- B.json...]: compare two sets of results
   files row by row (workload x end-to-end metric) against the bounds in
   BENCHMARK.json.  Exit 1 on any regression. *)

module Json = Bbc.Json

type bound = { metric : string; unit : string; lower_is_better : bool; bound : float }

let fail fmt = Printf.ksprintf failwith fmt

let read_json path =
  match Proc.read_file_opt path with
  | None -> fail "%s: cannot read" path
  | Some s -> (
      match Json.of_string s with Ok j -> j | Error e -> fail "%s: %s" path e)

let list_field name j =
  match Option.bind (Json.member name j) Json.to_list with Some l -> l | None -> []

let str name j = match Json.member name j with Some (Json.Str s) -> s | _ -> fail "missing %S" name
let num name j =
  match Option.bind (Json.member name j) Json.to_float with Some f -> f | None -> fail "missing %S" name

let bounds benchmark =
  List.map
    (fun m ->
      {
        metric = str "name" m;
        unit = str "unit" m;
        lower_is_better = str "better" m = "lower";
        bound = num "bound" m;
      })
    (list_field "end_to_end" (read_json benchmark))

(* (workload, metric) -> values, and workload -> (failed, attempted). *)
type side = {
  values : (string * string, float list) Hashtbl.t;
  fails : (string, int * int) Hashtbl.t;
  mutable order : string list;
}

let load files =
  let s = { values = Hashtbl.create 64; fails = Hashtbl.create 8; order = [] } in
  List.iter
    (fun file ->
      List.iter
        (fun w ->
          let name = str "name" w in
          if not (List.mem name s.order) then s.order <- s.order @ [ name ];
          let f, a = Option.value ~default:(0, 0) (Hashtbl.find_opt s.fails name) in
          Hashtbl.replace s.fails name
            (f + int_of_float (num "failed" w), a + int_of_float (num "attempted" w));
          match Json.member "metrics" w with
          | Some (Json.Obj ms) ->
              List.iter
                (fun (m, v) ->
                  let prev = Option.value ~default:[] (Hashtbl.find_opt s.values (name, m)) in
                  Hashtbl.replace s.values (name, m) (prev @ [ num "value" v ]))
                ms
          | _ -> ())
        (list_field "workloads" (read_json file)))
    files;
  s

let spread (q1, med, q3) = if med = 0.0 then Float.infinity else (q3 -. q1) /. Float.abs med

(* Within the bound, beyond it in either direction, or unresolved when
   either side's own spread exceeds the bound — unless every B run reads
   better (or every one worse) than every A run. *)
let verdict b a_vals b_vals =
  let ((_, ma, _) as qa) = Stat.quartiles a_vals and ((_, mb, _) as qb) = Stat.quartiles b_vals in
  let change = (mb -. ma) /. Float.abs ma in
  let worse = if b.lower_is_better then change else -.change in
  (* Oriented so that smaller is better. *)
  let score x = if b.lower_is_better then x else -.x in
  let lo l = List.fold_left Float.min Float.infinity (List.map score l) in
  let hi l = List.fold_left Float.max Float.neg_infinity (List.map score l) in
  let v =
    if Float.max (spread qa) (spread qb) > b.bound then
      if hi b_vals < lo a_vals then "better"
      else if lo b_vals > hi a_vals then "worse"
      else "unresolved"
    else if worse > b.bound then "worse"
    else if worse < -.b.bound then "better"
    else "within"
  in
  (qa, qb, change, v)

let run ~benchmark a_files b_files =
  let bounds = bounds benchmark in
  let a = load a_files and b = load b_files in
  let regressions = ref 0 in
  let pq (q1, m, q3) = Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3 in
  Printf.printf "%-12s %-15s %-5s %-30s %-30s %8s %6s  %s\n" "workload" "metric" "unit"
    "A median [q1, q3]" "B median [q1, q3]" "change" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun bd ->
          match (Hashtbl.find_opt a.values (w, bd.metric), Hashtbl.find_opt b.values (w, bd.metric)) with
          | Some av, Some bv ->
              let qa, qb, change, v = verdict bd av bv in
              if v = "worse" then incr regressions;
              Printf.printf "%-12s %-15s %-5s %-30s %-30s %+7.1f%% %5.0f%%  %s\n" w bd.metric bd.unit
                (pq qa) (pq qb) (change *. 100.0) (bd.bound *. 100.0) v
          | _ ->
              incr regressions;
              Printf.printf "%-12s %-15s missing on one side\n" w bd.metric)
        bounds;
      let share side =
        match Hashtbl.find_opt side.fails w with
        | Some (f, att) when att > 0 -> float_of_int f /. float_of_int att
        | _ -> 0.0
      in
      if share b > share a then begin
        incr regressions;
        Printf.printf "%-12s failed-op share rose: %.4g -> %.4g\n" w (share a) (share b)
      end)
    a.order;
  Printf.printf "%d regression(s)\n" !regressions;
  if !regressions > 0 then 1 else 0
