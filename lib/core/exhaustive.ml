type result = { equilibria : Config.t list; examined : int; complete : bool }

let all_strategies instance u =
  let acc = ref [] in
  let rec go chosen budget = function
    | [] -> acc := List.rev chosen :: !acc
    | v :: rest ->
        let c = Instance.cost instance u v in
        if c <= budget then go (v :: chosen) (budget - c) rest;
        go chosen budget rest
  in
  go [] (Instance.budget instance u) (Best_response.candidate_targets instance u);
  !acc

let maximal_strategies instance u =
  (* A feasible strategy is maximal when no remaining candidate fits the
     leftover budget. *)
  let candidates = Best_response.candidate_targets instance u in
  let budget = Instance.budget instance u in
  List.filter
    (fun s ->
      let spent = List.fold_left (fun acc v -> acc + Instance.cost instance u v) 0 s in
      not
        (List.exists
           (fun v -> (not (List.mem v s)) && Instance.cost instance u v <= budget - spent)
           candidates))
    (all_strategies instance u)

let space_size candidates =
  Array.fold_left (fun acc l -> acc *. float_of_int (List.length l)) 1.0 candidates

let default_candidates instance =
  Array.init (Instance.n instance) (all_strategies instance)

(* The profile space is partitioned by the strategies of the first
   [depth] nodes (the "prefix"): every prefix subtree is enumerated
   independently on the domain pool, and prefixes are indexed so that
   ascending index = the sequential DFS order.  Early abort propagates
   two ways: a global profile budget ([max_profiles]) and a per-prefix
   rule — a subtree may stop as soon as the prefixes strictly before it
   have already found [limit] equilibria, because all of those precede
   anything it could still find in enumeration order.  Together this
   keeps the reported equilibria identical to the sequential search for
   every job count. *)

let prefix_partition candidate_arrays ~n ~jobs =
  if jobs = 1 then (0, 1)
  else begin
    let target = jobs * 8 and cap = 8192 in
    let depth = ref 0 and count = ref 1 in
    while
      !depth < n && !count < target
      && !count * max 1 (Array.length candidate_arrays.(!depth)) <= cap
    do
      count := !count * Array.length candidate_arrays.(!depth);
      incr depth
    done;
    (!depth, !count)
  end

(* Mixed-radix decode of prefix index [p] (level 0 most significant, so
   lexicographic prefix order matches ascending [p]). *)
let decode_prefix candidate_arrays ~depth p profile =
  let rec go level p =
    if level >= 0 then begin
      let arr = candidate_arrays.(level) in
      let len = Array.length arr in
      profile.(level) <- arr.(p mod len);
      go (level - 1) (p / len)
    end
  in
  go (depth - 1) p

(* DFS over the suffix levels [level .. n-1]; [on_profile] sees every
   complete assignment and returns [true] to abort this subtree. *)
let enumerate_suffix candidate_arrays profile level ~on_profile =
  let n = Array.length candidate_arrays in
  let exception Stop in
  let rec assign u =
    if u = n then begin
      if on_profile () then raise Stop
    end
    else
      Array.iter
        (fun s ->
          profile.(u) <- s;
          assign (u + 1))
        candidate_arrays.(u)
  in
  try assign level with Stop -> ()

(* Search-shape telemetry: profiles actually evaluated, prefix subtrees
   pruned by the cross-prefix limit rule, and aborts on the global
   profile budget. *)
let obs_profiles = Bbc_obs.counter "exhaustive.profiles"
let obs_pruned = Bbc_obs.counter "exhaustive.pruned_prefixes"
let obs_aborted = Bbc_obs.counter "exhaustive.aborted"

let search ?objective ?candidates ?(limit = 1) ?(max_profiles = 100_000_000) ?jobs instance =
  let n = Instance.n instance in
  let candidates = match candidates with Some c -> c | None -> default_candidates instance in
  if Array.length candidates <> n then invalid_arg "Exhaustive.search: candidates length mismatch";
  (* Validate every candidate strategy once, up front.  The canonical
     rows this produces satisfy the profile representation invariant, so
     the enumeration below may assemble profiles out of them with
     {!Config.unsafe_of_arrays} — no per-profile validation pass. *)
  let candidate_arrays =
    Array.mapi
      (fun u l -> Array.of_list (List.map (Config.validated_strategy n u) l))
      candidates
  in
  let jobs = Bbc_parallel.jobs_for ?jobs ~threshold:0 n in
  Bbc_obs.with_span "exhaustive.search"
    ~attrs:[ ("n", Bbc_obs.Int n); ("limit", Bbc_obs.Int limit); ("jobs", Bbc_obs.Int jobs) ]
  @@ fun () ->
  let depth, nprefixes = prefix_partition candidate_arrays ~n ~jobs in
  let found = Array.init nprefixes (fun _ -> Atomic.make 0) in
  let total_found = Atomic.make 0 in
  let examined_total = Atomic.make 0 in
  let over_budget = Atomic.make false in
  let per_equilibria = Array.make nprefixes [] in
  let per_examined = Array.make nprefixes 0 in
  (* Have the prefixes strictly before [p] already found [limit]
     equilibria?  Cheap pre-check on the global count first. *)
  let limit_reached_before p =
    Atomic.get total_found >= limit
    &&
    let acc = ref 0 and q = ref 0 in
    while !acc < limit && !q < p do
      acc := !acc + Atomic.get found.(!q);
      incr q
    done;
    !acc >= limit
  in
  let run_prefix p =
    if Atomic.get over_budget || limit_reached_before p then Bbc_obs.incr obs_pruned
    else begin
      (* One mutable profile buffer per subtree, wrapped once as a
         profile view: the DFS rebinds rows in place and the view tracks
         it, so examining a profile allocates nothing.  Equilibria are
         detached from the buffer with a deep {!Config.snapshot}. *)
      let profile = Array.make n [||] in
      let view = Config.unsafe_of_arrays profile in
      decode_prefix candidate_arrays ~depth p profile;
      let equilibria = ref [] and mine = ref 0 and examined = ref 0 in
      let on_profile () =
        if Atomic.fetch_and_add examined_total 1 >= max_profiles then begin
          if not (Atomic.exchange over_budget true) then Bbc_obs.incr obs_aborted;
          true
        end
        else begin
          incr examined;
          if Stability.is_stable ?objective instance view then begin
            equilibria := Config.snapshot view :: !equilibria;
            incr mine;
            Atomic.incr found.(p);
            Atomic.incr total_found
          end;
          !mine >= limit
          || Atomic.get over_budget
          || (!examined land 63 = 0 && limit_reached_before p)
        end
      in
      enumerate_suffix candidate_arrays profile depth ~on_profile;
      per_equilibria.(p) <- List.rev !equilibria;
      per_examined.(p) <- !examined;
      Bbc_obs.add obs_profiles !examined
    end
  in
  Bbc_parallel.parallel_for ~jobs ~chunk:1 0 nprefixes run_prefix;
  let all = List.concat (Array.to_list per_equilibria) in
  let total = List.length all in
  let equilibria = List.filteri (fun i _ -> i < limit) all in
  {
    equilibria;
    examined = Array.fold_left ( + ) 0 per_examined;
    complete = (not (Atomic.get over_budget)) && total < limit;
  }

let has_equilibrium ?objective ?candidates ?max_profiles ?jobs instance =
  let r = search ?objective ?candidates ~limit:1 ?max_profiles ?jobs instance in
  if r.equilibria <> [] then Some true else if r.complete then Some false else None

let count_equilibria ?objective ?candidates ?max_profiles ?jobs instance =
  let r = search ?objective ?candidates ~limit:max_int ?max_profiles ?jobs instance in
  if r.complete then Some (List.length r.equilibria) else None
