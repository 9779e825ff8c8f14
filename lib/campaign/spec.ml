(* Campaign spec: a cartesian grid over trial axes.  The only subtle
   parts are the fixed axis order (points, inits, schedulers, policies,
   objectives, seeds — seeds innermost, so consecutive unit ids share a
   grid point) and the per-unit seed, a pure mix of campaign seed and
   unit index: resume and the pool can execute units in any order
   without perturbing any walk. *)

module Json = Bbc.Json
module Trial = Bbc.Trial
module Splitmix = Bbc_prng.Splitmix

type point = { generator : Trial.generator; n : int; k : int; h : int; l : int }

type t = {
  name : string;
  seed : int;
  seeds_per_point : int;
  max_rounds : int;
  points : point list;
  inits : Trial.init list;
  schedulers : Trial.sched list;
  policies : Trial.policy list;
  objectives : Bbc.Objective.t list;
}

let ( let* ) = Result.bind

(* ---------------------------------------------------------------- *)
(* Grid expansion                                                    *)

let axis_lengths t =
  [
    List.length t.points; List.length t.inits; List.length t.schedulers;
    List.length t.policies; List.length t.objectives; t.seeds_per_point;
  ]

let unit_count t = List.fold_left ( * ) 1 (axis_lengths t)

let unit_seed base i =
  let g = Splitmix.create base in
  let campaign_bits = Int64.to_int (Splitmix.next_int64 g) in
  let h = Splitmix.create (campaign_bits lxor ((i + 1) * 0x2545F4914F6CDD1D)) in
  Int64.to_int (Splitmix.next_int64 h) land max_int

let unit t i =
  let total = unit_count t in
  if i < 0 || i >= total then
    invalid_arg (Printf.sprintf "Spec.unit: index %d out of range [0,%d)" i total);
  let nth l j = List.nth l j in
  (* The seed index (innermost digit) never selects anything: the
     per-unit seed depends on [i] alone. *)
  let r = i / t.seeds_per_point in
  let n_obj = List.length t.objectives in
  let o_idx = r mod n_obj in
  let r = r / n_obj in
  let n_pol = List.length t.policies in
  let pol_idx = r mod n_pol in
  let r = r / n_pol in
  let n_sch = List.length t.schedulers in
  let sch_idx = r mod n_sch in
  let r = r / n_sch in
  let n_init = List.length t.inits in
  let init_idx = r mod n_init in
  let p_idx = r / n_init in
  let p = nth t.points p_idx in
  {
    Trial.generator = p.generator;
    n = p.n;
    k = p.k;
    h = p.h;
    l = p.l;
    init = nth t.inits init_idx;
    scheduler = nth t.schedulers sch_idx;
    policy = nth t.policies pol_idx;
    objective = nth t.objectives o_idx;
    max_rounds = t.max_rounds;
    seed = unit_seed t.seed i;
  }

(* ---------------------------------------------------------------- *)
(* Validation                                                        *)

let max_units = 1_000_000_000

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.seeds_per_point < 1 then
    err "campaign: seeds_per_point must be >= 1 (got %d)" t.seeds_per_point
  else if t.max_rounds < 1 then
    err "campaign: max_rounds must be >= 1 (got %d)" t.max_rounds
  else if t.points = [] then Error "campaign: points must be non-empty"
  else if t.inits = [] then Error "campaign: inits must be non-empty"
  else if t.schedulers = [] then Error "campaign: schedulers must be non-empty"
  else if t.policies = [] then Error "campaign: policies must be non-empty"
  else if t.objectives = [] then Error "campaign: objectives must be non-empty"
  else if
    (* Factor by factor, so a product past max_int cannot wrap below the
       limit. *)
    List.fold_left
      (fun units f -> if units > max_units / f then max_units + 1 else units * f)
      1 (axis_lengths t)
    > max_units
  then err "campaign: grid expands to more than %d units (the limit)" max_units
  else
    (* Validate every point x init x policy combination structurally;
       schedulers and objectives carry no constraints of their own. *)
    List.fold_left
      (fun acc p ->
        let* () = acc in
        List.fold_left
          (fun acc init ->
            let* () = acc in
            List.fold_left
              (fun acc policy ->
                let* () = acc in
                Trial.validate
                  {
                    Trial.generator = p.generator;
                    n = p.n;
                    k = p.k;
                    h = p.h;
                    l = p.l;
                    init;
                    scheduler = List.hd t.schedulers;
                    policy;
                    objective = List.hd t.objectives;
                    max_rounds = t.max_rounds;
                    seed = 0;
                  })
              (Ok ()) t.policies)
          (Ok ()) t.inits)
      (Ok ()) t.points

(* ---------------------------------------------------------------- *)
(* JSON                                                              *)

let point_to_json p =
  Json.Obj
    [
      ("generator", Trial.generator_to_json p.generator);
      ("n", Json.Int p.n);
      ("k", Json.Int p.k);
      ("h", Json.Int p.h);
      ("l", Json.Int p.l);
    ]

let to_json t =
  Json.Obj
    [
      ("type", Json.Str "bbc-campaign");
      ("version", Json.Int 1);
      ("name", Json.Str t.name);
      ("seed", Json.Int t.seed);
      ("seeds_per_point", Json.Int t.seeds_per_point);
      ("max_rounds", Json.Int t.max_rounds);
      ("points", Json.List (List.map point_to_json t.points));
      ("inits", Json.List (List.map (fun i -> Json.Str (Trial.init_name i)) t.inits));
      ( "schedulers",
        Json.List (List.map (fun s -> Json.Str (Trial.sched_name s)) t.schedulers) );
      ("policies", Json.List (List.map Trial.policy_to_json t.policies));
      ( "objectives",
        Json.List
          (List.map (fun o -> Json.Str (Bbc.Objective.to_string o)) t.objectives) );
    ]

let opt_int name ~default v =
  match Json.member name v with
  | None -> Ok default
  | Some x -> (
      match Json.to_int x with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "campaign: field %S must be an integer" name))

let req_int name v =
  match Json.member name v with
  | None -> Error (Printf.sprintf "campaign: missing field %S" name)
  | Some x -> (
      match Json.to_int x with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "campaign: field %S must be an integer" name))

let opt_str name ~default v =
  match Json.member name v with
  | None -> Ok default
  | Some (Json.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "campaign: field %S must be a string" name)

(* Decode an optional list-valued axis, mapping each element through
   [elt]; absent fields take [default]. *)
let axis name ~default ~elt v =
  match Json.member name v with
  | None -> Ok default
  | Some (Json.List xs) ->
      List.fold_left
        (fun acc x ->
          let* items = acc in
          let* d = elt x in
          Ok (d :: items))
        (Ok []) xs
      |> Result.map List.rev
  | Some _ -> Error (Printf.sprintf "campaign: field %S must be a list" name)

let named_elt what of_name = function
  | Json.Str s -> (
      match of_name s with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "campaign: unknown %s %S" what s))
  | _ -> Error (Printf.sprintf "campaign: %s entries must be strings" what)

let point_of_json v =
  let* gv =
    match Json.member "generator" v with
    | Some g -> Ok g
    | None -> Error "campaign: point missing field \"generator\""
  in
  let* generator = Trial.generator_of_json gv in
  let* n = req_int "n" v in
  let* k = req_int "k" v in
  let* h = opt_int "h" ~default:2 v in
  let* l = opt_int "l" ~default:3 v in
  Ok { generator; n; k; h; l }

let of_json v =
  let* () =
    match Json.member "type" v with
    | Some (Json.Str "bbc-campaign") -> Ok ()
    | _ -> Error "campaign: expected \"type\":\"bbc-campaign\""
  in
  let* version = opt_int "version" ~default:1 v in
  if version <> 1 then
    Error (Printf.sprintf "campaign: unsupported version %d" version)
  else
    let* name = opt_str "name" ~default:"campaign" v in
    let* seed = opt_int "seed" ~default:1 v in
    let* seeds_per_point = req_int "seeds_per_point" v in
    let* max_rounds = opt_int "max_rounds" ~default:200 v in
    let* points =
      match Json.member "points" v with
      | Some (Json.List xs) when xs <> [] ->
          List.fold_left
            (fun acc x ->
              let* items = acc in
              let* p = point_of_json x in
              Ok (p :: items))
            (Ok []) xs
          |> Result.map List.rev
      | Some (Json.List []) -> Error "campaign: points must be non-empty"
      | _ -> Error "campaign: missing or non-list field \"points\""
    in
    let* inits =
      axis "inits" ~default:[ Trial.Empty ]
        ~elt:(named_elt "init" Trial.init_of_name)
        v
    in
    let* schedulers =
      axis "schedulers" ~default:[ Trial.Round_robin ]
        ~elt:(named_elt "scheduler" Trial.sched_of_name)
        v
    in
    let* policies =
      axis "policies" ~default:[ Trial.Exact ] ~elt:Trial.policy_of_json v
    in
    let* objectives =
      axis "objectives"
        ~default:[ Bbc.Objective.Sum ]
        ~elt:(named_elt "objective" Bbc.Objective.of_string)
        v
    in
    Ok
      {
        name;
        seed;
        seeds_per_point;
        max_rounds;
        points;
        inits;
        schedulers;
        policies;
        objectives;
      }

let of_string s =
  let* v = Json.of_string s in
  let* t = of_json v in
  let* () = validate t in
  Ok t

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> of_string contents
  | exception Sys_error m -> Error m
