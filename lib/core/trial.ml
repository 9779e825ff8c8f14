(* One Monte-Carlo work unit; see trial.mli for the determinism
   contract.  Everything here is a pure function of the trial record:
   the four randomness consumers (instance tables, random start,
   random-order schedules, sampled candidates) each get an independent
   stream split off [seed] in a fixed order, so adding one consumer
   never perturbs the others. *)

module Splitmix = Bbc_prng.Splitmix

type generator =
  | Catalog of string
  | Family of string
  | Sparse of { zero_pct : int; max_weight : int }
  | Budgets of { max_budget : int }
  | Costs of { max_cost : int }
  | Metric of { span : int }
  | Perturbed of { flips : int }

type init = Empty | Seeded | Random_start
type sched = Round_robin | Random_order | Max_cost_first
type policy = Exact | First_improvement | Sampled of int

type t = {
  generator : generator;
  n : int;
  k : int;
  h : int;
  l : int;
  init : init;
  scheduler : sched;
  policy : policy;
  objective : Objective.t;
  max_rounds : int;
  seed : int;
}

type outcome = Converged | Cycled of int | Exhausted

type summary = {
  outcome : outcome;
  rounds : int;
  steps : int;
  deviations : int;
  social_cost : int;
  strongly_connected : bool;
}

(* ---------------------------------------------------------------- *)
(* Names                                                             *)

let sched_name = function
  | Round_robin -> "round-robin"
  | Random_order -> "random-order"
  | Max_cost_first -> "max-cost"

let sched_of_name = function
  | "round-robin" -> Some Round_robin
  | "random-order" -> Some Random_order
  | "max-cost" -> Some Max_cost_first
  | _ -> None

let init_name = function
  | Empty -> "empty"
  | Seeded -> "seeded"
  | Random_start -> "random"

let init_of_name = function
  | "empty" -> Some Empty
  | "seeded" -> Some Seeded
  | "random" -> Some Random_start
  | _ -> None

let policy_label = function
  | Exact -> "exact"
  | First_improvement -> "first-improvement"
  | Sampled s -> Printf.sprintf "sampled:%d" s

let gen_label t =
  match t.generator with
  | Catalog name -> Printf.sprintf "catalog:%s(n=%d,k=%d,h=%d,l=%d)" name t.n t.k t.h t.l
  | Family name -> Printf.sprintf "family:%s(n=%d,k=%d)" name t.n t.k
  | Sparse { zero_pct; max_weight } ->
      Printf.sprintf "sparse(zero=%d%%,w<=%d,n=%d,k=%d)" zero_pct max_weight t.n t.k
  | Budgets { max_budget } -> Printf.sprintf "budgets(b<=%d,n=%d)" max_budget t.n
  | Costs { max_cost } -> Printf.sprintf "costs(c<=%d,n=%d,k=%d)" max_cost t.n t.k
  | Metric { span } -> Printf.sprintf "metric(span=%d,n=%d,k=%d)" span t.n t.k
  | Perturbed { flips } -> Printf.sprintf "perturbed(flips=%d,n=%d,k=%d)" flips t.n t.k

let label t =
  String.concat "/"
    [
      gen_label t;
      init_name t.init;
      sched_name t.scheduler;
      policy_label t.policy;
      Objective.to_string t.objective;
    ]

(* ---------------------------------------------------------------- *)
(* Validation                                                        *)

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.n < 2 then err "trial: n must be >= 2 (got %d)" t.n
  else if t.k < 1 then err "trial: k must be >= 1 (got %d)" t.k
  else if t.max_rounds < 1 then err "trial: max_rounds must be >= 1 (got %d)" t.max_rounds
  else
    match t.policy with
    | Sampled s when s < 1 -> err "trial: sampled policy needs sample >= 1 (got %d)" s
    | _ -> (
        let carries_profile =
          match t.generator with Catalog _ | Family _ -> true | _ -> false
        in
        if t.init = Seeded && not carries_profile then
          Error "trial: init \"seeded\" needs a catalog or family generator"
        else
          match t.generator with
          | Catalog name ->
              if List.mem name Catalog.names then Ok ()
              else err "trial: unknown catalog construction %S" name
          | Family name ->
              if List.mem name Catalog.streaming_names then Ok ()
              else err "trial: unknown streaming family %S" name
          | Sparse { zero_pct; max_weight } ->
              if zero_pct < 0 || zero_pct > 100 then
                err "trial: zero_pct must be in [0,100] (got %d)" zero_pct
              else if max_weight < 1 then
                err "trial: max_weight must be >= 1 (got %d)" max_weight
              else Ok ()
          | Budgets { max_budget } ->
              if max_budget < 0 then err "trial: max_budget must be >= 0" else Ok ()
          | Costs { max_cost } ->
              if max_cost < 1 then err "trial: max_cost must be >= 1" else Ok ()
          | Metric { span } ->
              if span < 1 then err "trial: span must be >= 1" else Ok ()
          | Perturbed { flips } ->
              if flips < 0 then err "trial: flips must be >= 0" else Ok ())

(* ---------------------------------------------------------------- *)
(* Derived randomness: fixed split order off the one trial seed.      *)

let streams t =
  let g = Splitmix.create t.seed in
  let inst_rng = Splitmix.split g in
  let init_rng = Splitmix.split g in
  let sched_seed = Int64.to_int (Splitmix.next_int64 g) land max_int in
  let policy_seed = Int64.to_int (Splitmix.next_int64 g) land max_int in
  (inst_rng, init_rng, sched_seed, policy_seed)

let scheduler_of t =
  match t.scheduler with
  | Round_robin -> Dynamics.Round_robin
  | Max_cost_first -> Dynamics.Max_cost_first
  | Random_order ->
      let _, _, sched_seed, _ = streams t in
      Dynamics.Random_order sched_seed

let policy_of t =
  match t.policy with
  | Exact -> Dynamics.Exact_best_response
  | First_improvement -> Dynamics.First_improvement
  | Sampled sample ->
      let _, _, _, policy_seed = streams t in
      Dynamics.Sampled_best_response { sample; seed = policy_seed }

(* Seeded-random feasible profile: each node shuffles the other nodes
   and greedily buys links while its budget allows.  On uniform
   instances this is a uniform k-out draw; on non-uniform costs or
   budgets it saturates each node's budget in shuffle order. *)
let random_feasible rng inst =
  let n = Instance.n inst in
  let rows =
    Array.init n (fun u ->
        let cands = Array.init (n - 1) (fun i -> if i < u then i else i + 1) in
        Splitmix.shuffle rng cands;
        let budget = Instance.budget inst u in
        let spend = ref 0 in
        let chosen = ref [] in
        Array.iter
          (fun v ->
            let c = Instance.cost inst u v in
            if !spend + c <= budget then begin
              spend := !spend + c;
              chosen := v :: !chosen
            end)
          cands;
        List.sort compare !chosen)
  in
  Config.of_lists n rows

let build t =
  match validate t with
  | Error _ as e -> e
  | Ok () -> (
      let inst_rng, init_rng, _, _ = streams t in
      let params = { Catalog.n = t.n; k = t.k; h = t.h; l = t.l; seed = t.seed } in
      let generated =
        match t.generator with
        | Catalog name -> Catalog.build name params
        | Family name -> Catalog.build_streaming_reference name params
        | Sparse { zero_pct; max_weight } -> (
            try
              let inst =
                Gen_instance.sparse_weights inst_rng ~n:t.n ~k:t.k
                  ~zero_probability:(float_of_int zero_pct /. 100.0)
                  ~max_weight ()
              in
              Ok (inst, Config.empty t.n)
            with Invalid_argument m -> Error m)
        | Budgets { max_budget } -> (
            try Ok (Gen_instance.random_budgets inst_rng ~n:t.n ~max_budget, Config.empty t.n)
            with Invalid_argument m -> Error m)
        | Costs { max_cost } -> (
            try
              Ok
                ( Gen_instance.random_costs inst_rng ~n:t.n ~k:t.k ~max_cost (),
                  Config.empty t.n )
            with Invalid_argument m -> Error m)
        | Metric { span } -> (
            try
              Ok
                ( Gen_instance.metric_lengths inst_rng ~n:t.n ~k:t.k ~span (),
                  Config.empty t.n )
            with Invalid_argument m -> Error m)
        | Perturbed { flips } -> (
            try
              Ok
                ( Gen_instance.perturbed_uniform inst_rng ~n:t.n ~k:t.k ~flips,
                  Config.empty t.n )
            with Invalid_argument m -> Error m)
      in
      match generated with
      | Error _ as e -> e
      | Ok (inst, seeded_cfg) -> (
          match t.init with
          | Empty -> Ok (inst, Config.empty (Instance.n inst))
          | Seeded -> Ok (inst, seeded_cfg)
          | Random_start -> Ok (inst, random_feasible init_rng inst)))

let run ?on_step t =
  match build t with
  | Error _ as e -> e
  | Ok (inst, cfg) ->
      let outcome =
        Dynamics.run ~objective:t.objective ~policy:(policy_of t) ?on_step
          ~scheduler:(scheduler_of t) ~max_rounds:t.max_rounds inst cfg
      in
      let kind, (stats : Dynamics.stats), final =
        match outcome with
        | Dynamics.Converged (c, s) -> (Converged, s, c)
        | Dynamics.Cycled { config; period; stats } -> (Cycled period, stats, config)
        | Dynamics.Exhausted (c, s) -> (Exhausted, s, c)
      in
      Ok
        {
          outcome = kind;
          rounds = stats.Dynamics.rounds;
          steps = stats.Dynamics.steps;
          deviations = stats.Dynamics.deviations;
          social_cost = Eval.social_cost ~objective:t.objective inst final;
          strongly_connected =
            Bbc_graph.Scc.is_strongly_connected (Config.to_graph inst final);
        }

(* ---------------------------------------------------------------- *)
(* JSON — canonical field order on encode; decode accepts exactly the
   encoded shape (the spec round-trip fuzz property covers them).     *)

let generator_to_json = function
  | Catalog name -> Json.Obj [ ("kind", Json.Str "catalog"); ("name", Json.Str name) ]
  | Family name -> Json.Obj [ ("kind", Json.Str "family"); ("name", Json.Str name) ]
  | Sparse { zero_pct; max_weight } ->
      Json.Obj
        [
          ("kind", Json.Str "sparse");
          ("zero_pct", Json.Int zero_pct);
          ("max_weight", Json.Int max_weight);
        ]
  | Budgets { max_budget } ->
      Json.Obj [ ("kind", Json.Str "budgets"); ("max_budget", Json.Int max_budget) ]
  | Costs { max_cost } ->
      Json.Obj [ ("kind", Json.Str "costs"); ("max_cost", Json.Int max_cost) ]
  | Metric { span } -> Json.Obj [ ("kind", Json.Str "metric"); ("span", Json.Int span) ]
  | Perturbed { flips } ->
      Json.Obj [ ("kind", Json.Str "perturbed"); ("flips", Json.Int flips) ]

let field name v =
  match Json.member name v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "trial: missing field %S" name)

let int_field name v =
  match field name v with
  | Error _ as e -> e
  | Ok x -> (
      match Json.to_int x with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "trial: field %S must be an integer" name))

let str_field name v =
  match field name v with
  | Error _ as e -> e
  | Ok (Json.Str s) -> Ok s
  | Ok _ -> Error (Printf.sprintf "trial: field %S must be a string" name)

let ( let* ) = Result.bind

let generator_of_json v =
  let* kind = str_field "kind" v in
  match kind with
  | "catalog" ->
      let* name = str_field "name" v in
      Ok (Catalog name)
  | "family" ->
      let* name = str_field "name" v in
      Ok (Family name)
  | "sparse" ->
      let* zero_pct = int_field "zero_pct" v in
      let* max_weight = int_field "max_weight" v in
      Ok (Sparse { zero_pct; max_weight })
  | "budgets" ->
      let* max_budget = int_field "max_budget" v in
      Ok (Budgets { max_budget })
  | "costs" ->
      let* max_cost = int_field "max_cost" v in
      Ok (Costs { max_cost })
  | "metric" ->
      let* span = int_field "span" v in
      Ok (Metric { span })
  | "perturbed" ->
      let* flips = int_field "flips" v in
      Ok (Perturbed { flips })
  | k -> Error (Printf.sprintf "trial: unknown generator kind %S" k)

let policy_to_json = function
  | Exact -> Json.Str "exact"
  | First_improvement -> Json.Str "first-improvement"
  | Sampled s -> Json.Obj [ ("sampled", Json.Int s) ]

let policy_of_json = function
  | Json.Str "exact" -> Ok Exact
  | Json.Str "first-improvement" -> Ok First_improvement
  | Json.Obj _ as v -> (
      match Json.member "sampled" v with
      | Some s -> (
          match Json.to_int s with
          | Some i -> Ok (Sampled i)
          | None -> Error "trial: \"sampled\" must be an integer")
      | None -> Error "trial: policy object must have a \"sampled\" field")
  | Json.Str s -> Error (Printf.sprintf "trial: unknown policy %S" s)
  | _ -> Error "trial: policy must be a string or {\"sampled\":N}"

let outcome_name = function
  | Converged -> "converged"
  | Cycled _ -> "cycled"
  | Exhausted -> "exhausted"

let summary_to_json r =
  Json.Obj
    [
      ("outcome", Json.Str (outcome_name r.outcome));
      ("period", Json.Int (match r.outcome with Cycled p -> p | _ -> 0));
      ("rounds", Json.Int r.rounds);
      ("steps", Json.Int r.steps);
      ("deviations", Json.Int r.deviations);
      ("social_cost", Json.Int r.social_cost);
      ("strongly_connected", Json.Bool r.strongly_connected);
    ]

let summary_of_json v =
  let* outcome_s = str_field "outcome" v in
  let* period = int_field "period" v in
  let* outcome =
    match outcome_s with
    | "converged" -> Ok Converged
    | "cycled" -> Ok (Cycled period)
    | "exhausted" -> Ok Exhausted
    | s -> Error (Printf.sprintf "trial: unknown outcome %S" s)
  in
  let* rounds = int_field "rounds" v in
  let* steps = int_field "steps" v in
  let* deviations = int_field "deviations" v in
  let* social_cost = int_field "social_cost" v in
  let* sc = field "strongly_connected" v in
  match Json.to_bool sc with
  | None -> Error "trial: field \"strongly_connected\" must be a boolean"
  | Some strongly_connected ->
      Ok { outcome; rounds; steps; deviations; social_cost; strongly_connected }
