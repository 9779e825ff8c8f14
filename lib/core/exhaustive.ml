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

let forced_candidates instance =
  let n = Instance.n instance in
  Array.init n (fun u ->
      match List.filter (fun v -> v <> u && Instance.weight instance u v > 0) (List.init n Fun.id) with
      | [ t ] -> [ [ t ] ]
      | _ -> all_strategies instance u)

let space_size candidates =
  Array.fold_left (fun acc l -> acc *. float_of_int (List.length l)) 1.0 candidates

let candidate_lists ?candidates instance =
  match candidates with
  | Some c -> c
  | None -> Array.init (Instance.n instance) (all_strategies instance)

(* Every candidate strategy is validated once, up front: profiles are
   assembled out of the canonical rows with {!Config.unsafe_of_arrays},
   with no per-profile validation pass. *)
let candidate_rows instance candidates =
  let n = Instance.n instance in
  if Array.length candidates <> n then invalid_arg "Exhaustive: candidates length mismatch";
  Array.mapi (fun u l -> Array.of_list (List.map (Config.validated_strategy n u) l)) candidates

let ordinals instance rows u =
  let at = Hashtbl.create 64 and count = ref 0 in
  Best_response.enumerate instance (Config.empty (Instance.n instance)) u
    ~on_subset:(fun chosen _ ->
      Hashtbl.replace at (Array.of_list (List.rev chosen)) !count;
      incr count;
      false);
  (Array.map (fun s -> Option.value ~default:(-1) (Hashtbl.find_opt at s)) rows.(u), !count)

(* The space is partitioned by the strategies of the first [depth] nodes
   (the "prefix"), at most n - 1 of them: every prefix subtree is
   enumerated independently on the domain pool, and prefixes are indexed
   so that ascending index = the sequential DFS order. *)
let prefix_partition rows ~jobs =
  if jobs = 1 then (0, 1)
  else begin
    let target = jobs * 8 and cap = 8192 in
    let depth = ref 0 and count = ref 1 in
    while
      !depth < Array.length rows - 1
      && !count < target
      && !count * max 1 (Array.length rows.(!depth)) <= cap
    do
      count := !count * Array.length rows.(!depth);
      incr depth
    done;
    (!depth, !count)
  end

type block = { view : Config.t; first : int; set : int -> unit; stable : int -> bool }

let blocks ?objective ~jobs instance rows ~start ~block =
  let last = Array.length rows - 1 in
  let tail = rows.(last) in
  let ord, subsets = ordinals instance rows last in
  let others = List.init last Fun.id in
  let depth, nprefixes = prefix_partition rows ~jobs in
  let results = Array.make nprefixes None and start = start nprefixes in
  let run p st =
    (* One mutable profile buffer per subtree, rebound in place. *)
    let profile = Array.make (last + 1) [||] in
    let view = Config.unsafe_of_arrays profile in
    let costs = Array.make subsets 0 in
    (* Mixed-radix decode of [p], level 0 most significant. *)
    let q = ref p in
    for u = depth - 1 downto 0 do
      let len = Array.length rows.(u) in
      profile.(u) <- rows.(u).(!q mod len);
      q := !q / len
    done;
    let exception Stop in
    let rec assign u index =
      if u < last then
        Array.iteri
          (fun j s ->
            profile.(u) <- s;
            assign (u + 1) ((index * Array.length rows.(u)) + j))
          rows.(u)
      else begin
        (* The last node's G_{-(n-1)} rows ignore its own row, so one
           enumeration, made on first use, prices all its strategies. *)
        let best =
          lazy
            (let best = ref max_int and k = ref 0 in
             Best_response.enumerate ?objective ?csr:(Best_response.snapshot instance view) instance
               view last ~on_subset:(fun _ c ->
                 costs.(!k) <- c;
                 incr k;
                 best := min !best c;
                 false);
             !best)
        in
        let set j = profile.(last) <- tail.(j) in
        let stable j =
          set j;
          ord.(j) >= 0
          && (* Forced before [costs] is read: it fills them. *)
          (let best = Lazy.force best in
           best = costs.(ord.(j)))
          && Stability.nodes_stable ?objective instance view others
        in
        profile.(last) <- [||];
        if block st { view; first = index * Array.length tail; set; stable } then raise Stop
      end
    in
    (try assign depth p with Stop -> ());
    results.(p) <- Some st
  in
  if not (Array.exists (fun r -> Array.length r = 0) rows) then
    Bbc_parallel.parallel_for ~jobs ~chunk:1 0 nprefixes (fun p -> Option.iter (run p) (start p));
  results

(* Search-shape telemetry: profiles examined, prefix subtrees pruned by
   the cross-prefix limit rule, and aborts on the global profile
   budget. *)
let obs_profiles = Bbc_obs.counter "exhaustive.profiles"
let obs_pruned = Bbc_obs.counter "exhaustive.pruned_prefixes"
let obs_aborted = Bbc_obs.counter "exhaustive.aborted"

type prefix = { p : int; mutable found : Config.t list; mutable mine : int; mutable examined : int }

let search ?objective ?candidates ?(limit = 1) ?(max_profiles = 100_000_000) ?jobs instance =
  let n = Instance.n instance in
  let candidates = candidate_lists ?candidates instance in
  let rows = candidate_rows instance candidates in
  let jobs = Bbc_parallel.jobs_for ?jobs ~threshold:0 n in
  Bbc_obs.with_span "exhaustive.search"
    ~attrs:[ ("n", Bbc_obs.Int n); ("limit", Bbc_obs.Int limit); ("jobs", Bbc_obs.Int jobs) ]
  @@ fun () ->
  (* Early abort propagates two ways: a global profile budget
     ([max_profiles]) and a per-prefix rule — a subtree may stop as soon
     as the prefixes strictly before it have already found [limit]
     equilibria, because all of those precede anything it could still
     find in enumeration order.  Together this keeps the reported
     equilibria identical to the sequential search for every job
     count. *)
  (* Equilibria found per prefix subtree, sized by [start]. *)
  let counts = ref [||] and total_found = Atomic.make 0 in
  let examined_total = Atomic.make 0 in
  let over_budget = Atomic.make false in
  (* Have the prefixes strictly before [p] already found [limit]
     equilibria?  Cheap pre-check on the global count first. *)
  let limit_reached_before p =
    Atomic.get total_found >= limit
    &&
    let acc = ref 0 and q = ref 0 in
    while !acc < limit && !q < p do
      acc := !acc + Atomic.get !counts.(!q);
      incr q
    done;
    !acc >= limit
  in
  let start count =
    counts := Array.init count (fun _ -> Atomic.make 0);
    fun p ->
      if Atomic.get over_budget || limit_reached_before p then begin
        Bbc_obs.incr obs_pruned;
        None
      end
      else Some { p; found = []; mine = 0; examined = 0 }
  in
  (* The budget is charged per profile, also inside a block. *)
  let block st b =
    let rec from j =
      j < Array.length rows.(n - 1)
      &&
      if Atomic.fetch_and_add examined_total 1 >= max_profiles then begin
        if not (Atomic.exchange over_budget true) then Bbc_obs.incr obs_aborted;
        true
      end
      else begin
        st.examined <- st.examined + 1;
        if b.stable j then begin
          st.found <- Config.snapshot b.view :: st.found;
          st.mine <- st.mine + 1;
          Atomic.incr !counts.(st.p);
          Atomic.incr total_found
        end;
        st.mine >= limit
        || Atomic.get over_budget
        || (st.examined land 63 = 0 && limit_reached_before st.p)
        || from (j + 1)
      end
    in
    from 0
  in
  let per = List.filter_map Fun.id (Array.to_list (blocks ?objective ~jobs instance rows ~start ~block)) in
  let examined = List.fold_left (fun acc st -> acc + st.examined) 0 per in
  Bbc_obs.add obs_profiles examined;
  let all = List.concat_map (fun st -> List.rev st.found) per in
  {
    equilibria = List.filteri (fun i _ -> i < limit) all;
    examined;
    complete = (not (Atomic.get over_budget)) && List.length all < limit;
  }

let has_equilibrium ?objective ?candidates ?max_profiles ?jobs instance =
  let r = search ?objective ?candidates ~limit:1 ?max_profiles ?jobs instance in
  if r.equilibria <> [] then Some true else if r.complete then Some false else None

let count_equilibria ?objective ?candidates ?max_profiles ?jobs instance =
  let r = search ?objective ?candidates ~limit:max_int ?max_profiles ?jobs instance in
  if r.complete then Some (List.length r.equilibria) else None
