module Splitmix = Bbc_prng.Splitmix

type scheduler =
  | Round_robin
  | Fixed_order of int array
  | Random_order of int
  | Max_cost_first

type move_policy =
  | Exact_best_response
  | First_improvement
  | Sampled_best_response of { sample : int; seed : int }

type step = {
  index : int;
  round : int;
  node : int;
  moved : bool;
  strategy : int list;
  cost_after : int;
}

type stats = { rounds : int; steps : int; deviations : int }

type outcome =
  | Converged of Config.t * stats
  | Cycled of { config : Config.t; period : int; stats : stats }
  | Exhausted of Config.t * stats

let final_config = function
  | Converged (c, _) -> c
  | Cycled { config; _ } -> config
  | Exhausted (c, _) -> c

let stats = function
  | Converged (_, s) -> s
  | Cycled { stats = s; _ } -> s
  | Exhausted (_, s) -> s

let pp_outcome fmt o =
  let pp_stats fmt s =
    Format.fprintf fmt "rounds=%d steps=%d deviations=%d" s.rounds s.steps s.deviations
  in
  match o with
  | Converged (_, s) -> Format.fprintf fmt "converged (%a)" pp_stats s
  | Cycled { period; stats = s; _ } ->
      Format.fprintf fmt "cycled (period %d rounds, %a)" period pp_stats s
  | Exhausted (_, s) -> Format.fprintf fmt "exhausted (%a)" pp_stats s

(* What one activation did: the profile after it, whether [node] moved,
   and [node]'s cost before and after the step. *)
type activation = { config : Config.t; moved : bool; before : int; after : int }

(* One best-response activation of [node].  A node moves only on a
   strict improvement, per the paper's best-response step, and both
   costs come from one {!Best_response.decide}: its [current] is the
   cost before, and the cost after is [best.cost] on a move, [current]
   otherwise.  Nothing re-evaluates a node's cost per activation.

   [known] is the first-improving decision of a node a scheduler
   already found unstable (Max_cost_first's scan decides its winner),
   so the enumeration is not repeated here: its [current] is the cost
   before and its [best] an improving witness.

   [csr] is the walk's snapshot of [config] (see [run]). *)
let activate ?objective ?rng ?known ?csr ~policy instance config node =
  let stay cost = { config; moved = false; before = cost; after = cost } in
  let move (r : Best_response.result) before =
    { config = Config.with_strategy config node r.strategy; moved = true; before; after = r.cost }
  in
  let decide search =
    let d = Best_response.decide ?objective ?csr ~search instance config node in
    if d.best.cost < d.current then move d.best d.current else stay d.current
  in
  match ((known : Best_response.decision option), policy) with
  | Some d, First_improvement -> move d.best d.current
  | Some d, Exact_best_response ->
      (* Known unstable, so the optimum strictly improves. *)
      move (Best_response.exact ?objective ?csr instance config node) d.current
  | _, Sampled_best_response { sample; _ } ->
      decide (Sampled { rng = Option.get rng; sample })
  | None, First_improvement -> decide First_improving
  | None, Exact_best_response -> decide Exact

let obs_activations = Bbc_obs.counter "dynamics.activations"
let obs_deviations = Bbc_obs.counter "dynamics.deviations"

let scheduler_name = function
  | Round_robin -> "round-robin"
  | Fixed_order _ -> "fixed-order"
  | Random_order _ -> "random-order"
  | Max_cost_first -> "max-cost"

(* One [dynamics.activation] trace event per deviation: who moved, the
   cost improvement (the activation's own costs), and the edge swap
   (targets added / removed). *)
let trace_activation ~prev ~next ~old_cost ~new_cost ~index ~round ~node =
  if Bbc_obs.tracing () then begin
    let old_s = Config.targets prev node and new_s = Config.targets next node in
    let added = List.filter (fun v -> not (List.mem v old_s)) new_s in
    let removed = List.filter (fun v -> not (List.mem v new_s)) old_s in
    let str l = String.concat " " (List.map string_of_int l) in
    Bbc_obs.event "dynamics.activation"
      ~attrs:
        [
          ("step", Int index);
          ("round", Int round);
          ("node", Int node);
          ("old_cost", Int old_cost);
          ("new_cost", Int new_cost);
          ("strategy", Str (str new_s));
          ("added", Str (str added));
          ("removed", Str (str removed));
        ]
  end

let trace_outcome outcome =
  if Bbc_obs.tracing () then begin
    let s = stats outcome in
    let label, extra =
      match outcome with
      | Converged _ -> ("converged", [])
      | Cycled { period; _ } -> ("cycled", [ ("period", Bbc_obs.Int period) ])
      | Exhausted _ -> ("exhausted", [])
    in
    Bbc_obs.event "dynamics.outcome"
      ~attrs:
        ([
           ("outcome", Bbc_obs.Str label);
           ("converged", Bbc_obs.Bool (match outcome with Converged _ -> true | _ -> false));
           ("rounds", Bbc_obs.Int s.rounds);
           ("steps", Bbc_obs.Int s.steps);
           ("deviations", Bbc_obs.Int s.deviations);
         ]
        @ extra)
  end

let round_order scheduler rng n =
  match scheduler with
  | Round_robin -> Array.init n Fun.id
  | Fixed_order order -> order
  | Random_order _ ->
      let order = Array.init n Fun.id in
      Splitmix.shuffle (Option.get rng) order;
      order
  | Max_cost_first -> assert false

(* The walk's one snapshot of its start, or [None] when no decision
   reads rows: uniform k = 1 on a functional profile takes the closed
   form under [Exact_best_response] and [First_improvement], and every
   move keeps the profile functional (a budget of one unit link buys at
   most one).  [None] stays correct if that ever changed: a decision
   given no snapshot builds its own. *)
let walk_snapshot ~policy instance config =
  match policy with
  | Sampled_best_response _ -> Some (Config.to_csr instance config)
  | Exact_best_response | First_improvement -> Best_response.snapshot instance config

(* The unstable node of max cost (lowest index on ties) and its
   first-improving decision, handed to the activation so its
   enumeration never runs twice for the same step; [None] when every
   node is stable.  On a uniform k = 1 functional profile one
   [Functional.scan] gives every verdict and cost and only the winner is
   decided; otherwise one decision per node on the walk's snapshot, in
   node order: its [current] is the node's cost and its [best] the
   witness of an unstable node. *)
let max_cost_unstable ?(objective = Objective.Sum) ~csr instance config =
  let n = Instance.n instance in
  let decide u = Best_response.decide ~objective ?csr ~search:First_improving instance config u in
  let pick unstable cost =
    let node = ref (-1) in
    for u = 0 to n - 1 do
      if unstable u && (!node < 0 || cost u > cost !node) then node := u
    done;
    !node
  in
  match Functional.input instance config with
  | Some succ ->
      let s = Functional.scan succ in
      let node =
        pick (Functional.improves ~objective instance s) (fun u ->
            Functional.cost ~objective instance s.current.(u))
      in
      if node < 0 then None else Some (node, decide node)
  | None ->
      let decisions = Array.init n decide in
      let node =
        pick
          (fun u -> decisions.(u).best.cost < decisions.(u).current)
          (fun u -> decisions.(u).current)
      in
      if node < 0 then None else Some (node, decisions.(node))

(* A repeated profile (compared whole, so a hash collision is never a
   repeat) is a cycle only when the rest of the walk is a function of
   the profile: no scheduler draw and no sampled move. *)
let detects_cycles ~scheduler ~policy =
  match (scheduler, policy) with
  | Random_order _, _ | _, Sampled_best_response _ -> false
  | (Round_robin | Fixed_order _ | Max_cost_first), (Exact_best_response | First_improvement) ->
      true

(* Once, before the walk: a [Fixed_order] lists every node exactly once. *)
let check_order scheduler n =
  match scheduler with
  | Fixed_order order ->
      let seen = Array.make n false in
      let fresh v = v >= 0 && v < n && (not seen.(v)) && (seen.(v) <- true; true) in
      if Array.length order <> n || not (Array.for_all fresh order) then
        invalid_arg "Dynamics: Fixed_order must be a permutation of all nodes"
  | Round_robin | Random_order _ | Max_cost_first -> ()

let run ?objective ?(policy = Exact_best_response) ?on_step ~scheduler
    ~max_rounds instance config0 =
  let n = Instance.n instance in
  check_order scheduler n;
  Bbc_obs.with_span "dynamics.run"
    ~attrs:
      [
        ("n", Bbc_obs.Int n);
        ("scheduler", Bbc_obs.Str (scheduler_name scheduler));
        ("max_rounds", Bbc_obs.Int max_rounds);
      ]
  @@ fun () ->
  let rng = match scheduler with Random_order seed -> Some (Splitmix.create seed) | _ -> None in
  (* One generator for the whole walk's candidate sampling, so a run is
     replayable from (scheduler, policy) seeds alone. *)
  let brng =
    match policy with
    | Sampled_best_response { seed; _ } -> Some (Splitmix.create seed)
    | _ -> None
  in
  (* One snapshot for the whole walk, always that of the current
     profile: every activation decides on it, and a move replaces the
     mover's row ([Csr.with_row], O(n + m)) instead of rebuilding the
     graph; a node that stays costs nothing. *)
  let csr = ref (walk_snapshot ~policy instance config0) in
  let advance node (a : activation) =
    if a.moved then csr := Option.map (fun s -> Config.csr_with_row instance a.config s node) !csr
  in
  let emit ~prev index round node (a : activation) =
    Bbc_obs.incr obs_activations;
    if a.moved then begin
      Bbc_obs.incr obs_deviations;
      trace_activation ~prev ~next:a.config ~old_cost:a.before ~new_cost:a.after ~index ~round
        ~node
    end;
    match on_step with
    | None -> ()
    | Some f ->
        f
          {
            index;
            round;
            node;
            moved = a.moved;
            strategy = Config.targets a.config node;
            cost_after = a.after;
          }
  in
  let cycles = detects_cycles ~scheduler ~policy in
  let outcome =
  match scheduler with
  | Max_cost_first ->
      (* Adaptive: each step activates the unstable node of max cost.  A
         "round" is one step. *)
      let seen = Config.Tbl.create 64 in
      let max_steps = max_rounds in
      let rec go config step deviations =
        if step >= max_steps then
          Exhausted (config, { rounds = step; steps = step; deviations })
        else
          match if cycles then Config.Tbl.find_opt seen config else None with
          | Some prev ->
              Cycled
                {
                  config;
                  period = step - prev;
                  stats = { rounds = step; steps = step; deviations };
                }
          | None -> (
              if cycles then Config.Tbl.add seen config step;
              match max_cost_unstable ?objective ~csr:!csr instance config with
              | None -> Converged (config, { rounds = step; steps = step; deviations })
              | Some (node, known) ->
                  let a =
                    activate ?objective ?rng:brng ~known ?csr:!csr ~policy instance config node
                  in
                  advance node a;
                  emit ~prev:config step step node a;
                  go a.config (step + 1) (deviations + if a.moved then 1 else 0))
      in
      go config0 0 0
  | Round_robin | Fixed_order _ | Random_order _ ->
      let seen = Config.Tbl.create 64 in
      let rec go config round steps deviations =
        if round >= max_rounds then
          Exhausted (config, { rounds = round; steps; deviations })
        else
          match if cycles then Config.Tbl.find_opt seen config else None with
          | Some prev ->
              Cycled
                {
                  config;
                  period = round - prev;
                  stats = { rounds = round; steps; deviations };
                }
          | None ->
              if cycles then Config.Tbl.add seen config round;
              let order = round_order scheduler rng n in
              let config = ref config and changed = ref 0 and steps = ref steps in
              Array.iter
                (fun node ->
                  let a = activate ?objective ?rng:brng ?csr:!csr ~policy instance !config node in
                  advance node a;
                  emit ~prev:!config !steps round node a;
                  incr steps;
                  if a.moved then incr changed;
                  config := a.config)
                order;
              if !changed = 0 then
                Converged (!config, { rounds = round + 1; steps = !steps; deviations })
              else go !config (round + 1) !steps (deviations + !changed)
      in
      go config0 0 0 0
  in
  trace_outcome outcome;
  outcome

let first_strong_connectivity ?objective ?policy ~scheduler ~max_rounds
    instance config0 =
  let hit = ref None in
  let check stats config =
    if
      !hit = None
      && Bbc_graph.Scc.is_strongly_connected (Config.to_graph instance config)
    then hit := Some stats
  in
  check { rounds = 0; steps = 0; deviations = 0 } config0;
  (* Track deviations incrementally; connectivity can only change on a
     move, so only moves trigger an SCC computation. *)
  let deviations = ref 0 in
  let current = ref config0 in
  let on_step (s : step) =
    if s.moved then begin
      incr deviations;
      current := Config.with_strategy !current s.node s.strategy;
      check
        { rounds = s.round; steps = s.index + 1; deviations = !deviations }
        !current
    end
  in
  let outcome =
    run ?objective ?policy ~on_step ~scheduler ~max_rounds instance config0
  in
  Option.map (fun stats -> (stats, outcome)) !hit
