(* Per-layer measurement for traced runs: a span-tree sink over Bbc_obs
   trace events, counter deltas, and probes that time each layer's public
   entry points on a workload's own game states.  Nothing here adds
   instrumentation to the library; it only reads what lib/ already
   exposes. *)

module Json = Bbc.Json

type metric = { name : string; unit : string; value : float; samples : int }

let metric ?(samples = 1) name unit value = { name; unit; value; samples }
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let us_of_ns ns = float_of_int ns /. 1e3

(* ---------------------------------------------------------------- *)
(* Span tree                                                         *)

(* One row per span name.  [self_ns] is the span's time minus the part
   its same-domain child spans cover; [None] when only aggregates were
   recorded (no event stream). *)
type row = { span : string; count : int; total_ns : int; self_ns : int option }

type tracer = {
  agg : (string, int ref * int ref * int ref) Hashtbl.t;  (** count, total, self *)
  open_children : (int, int ref) Hashtbl.t;  (** open span id -> covered ns *)
  oc : out_channel;
}

(* Events arrive in global sequence order, so a span's open precedes its
   children's closes.  Instant events (one per dynamics activation) are
   not written: they would make a campaign trace hundreds of MB. *)
let on_event tr (e : Bbc_obs.ev) =
  let write () = Bbc_obs.jsonl_sink tr.oc e in
  match e.kind with
  | Bbc_obs.Span_open ->
      Hashtbl.replace tr.open_children e.id (ref 0);
      write ()
  | Bbc_obs.Span_close ->
      let dur = match List.assoc_opt "dur_ns" e.attrs with Some (Bbc_obs.Int d) -> d | _ -> 0 in
      let covered =
        match Hashtbl.find_opt tr.open_children e.id with Some c -> !c | None -> 0
      in
      Hashtbl.remove tr.open_children e.id;
      (match Hashtbl.find_opt tr.open_children e.parent with
      | Some c -> c := !c + dur
      | None -> ());
      let count, total, self =
        match Hashtbl.find_opt tr.agg e.name with
        | Some cell -> cell
        | None ->
            let cell = (ref 0, ref 0, ref 0) in
            Hashtbl.replace tr.agg e.name cell;
            cell
      in
      incr count;
      total := !total + dur;
      self := !self + (dur - covered);
      write ()
  | Bbc_obs.Instant -> ()
  | Bbc_obs.Snapshot -> write ()

let start_trace file =
  Proc.mkdir_p (Filename.dirname file);
  let tr = { agg = Hashtbl.create 32; open_children = Hashtbl.create 32; oc = open_out file } in
  Bbc_obs.enable ();
  Bbc_obs.add_sink (on_event tr);
  tr

let by_total rows = List.sort (fun a b -> compare b.total_ns a.total_ns) rows

let stop_trace tr =
  Bbc_obs.drain ();
  Bbc_obs.clear_sinks ();
  Bbc_obs.disable ();
  close_out tr.oc;
  by_total
    (Hashtbl.fold
       (fun span (c, t, s) acc -> { span; count = !c; total_ns = !t; self_ns = Some !s } :: acc)
       tr.agg [])

(* Aggregate-only rows between two [Bbc_obs.span_stats] snapshots. *)
let span_delta before after =
  by_total
    (List.filter_map
       (fun (span, c, t) ->
         let c0, t0 =
           match List.find_opt (fun (n, _, _) -> n = span) before with
           | Some (_, c0, t0) -> (c0, t0)
           | None -> (0, 0)
         in
         if c > c0 then Some { span; count = c - c0; total_ns = t - t0; self_ns = None }
         else None)
       after)

let bench_span workload call f = Bbc_obs.with_span ("bench." ^ workload ^ "." ^ call) f

let row_to_json r =
  Json.Obj
    [
      ("span", Json.Str r.span);
      ("count", Json.Int r.count);
      ("total_ms", Json.Float (float_of_int r.total_ns /. 1e6));
      ( "self_ms",
        match r.self_ns with Some s -> Json.Float (float_of_int s /. 1e6) | None -> Json.Null );
    ]

let pp_table ppf ~workload rows =
  Format.fprintf ppf "%s: per-layer span table (self = total - covered child spans)@." workload;
  Format.fprintf ppf "  %-44s %9s %12s %12s@." "span" "count" "total_ms" "self_ms";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-44s %9d %12.3f %12s@." r.span r.count
        (float_of_int r.total_ns /. 1e6)
        (match r.self_ns with
        | Some s -> Printf.sprintf "%.3f" (float_of_int s /. 1e6)
        | None -> "-"))
    rows

(* ---------------------------------------------------------------- *)
(* Counters                                                          *)

let counter_names =
  [
    "eval.sssp";
    "workspace.acquires";
    "workspace.row_allocs";
    "pool.tasks";
    "incr.cost_cache_hits";
    "incr.cost_cache_misses";
    "incremental.full_sssp";
    "incremental.repairs";
    "incremental.repairs_noop";
    "best_response.subsets";
    "dynamics.activations";
    "dynamics.deviations";
  ]

type counters = { values : (string * int) list; pool_wait_count : int; pool_wait_ns : int }

let pool_wait = lazy (Bbc_obs.histogram "pool.wait_ns")

let counters () =
  let h = Lazy.force pool_wait in
  {
    values = List.map (fun n -> (n, Bbc_obs.counter_value (Bbc_obs.counter n))) counter_names;
    pool_wait_count = Bbc_obs.histogram_count h;
    pool_wait_ns = Bbc_obs.histogram_sum h;
  }

let delta before after name = List.assoc name after.values - List.assoc name before.values

(* The counter-derived per_layer metrics, normalized by the workload's
   operations so runs of different length compare. *)
let per_op ~ops before after =
  let d = delta before after in
  let per name = metric ~samples:ops (name ^ "_per_op") "count" (ratio (d name) ops) in
  let hits = d "incr.cost_cache_hits" and misses = d "incr.cost_cache_misses" in
  let repairs = d "incremental.repairs" in
  [
    per "eval.sssp";
    per "workspace.row_allocs";
    per "pool.tasks";
    metric ~samples:(hits + misses) "incr.cache_hit_ratio" "ratio" (ratio hits (hits + misses));
    metric ~samples:repairs "incremental.useful_repair_ratio" "ratio"
      (if repairs = 0 then 0.0 else 1.0 -. ratio (d "incremental.repairs_noop") repairs);
  ]

let pool_wait_mean_us before after =
  let c = after.pool_wait_count - before.pool_wait_count in
  let ns = after.pool_wait_ns - before.pool_wait_ns in
  metric ~samples:c "pool.wait_mean_us" "us" (if c = 0 then 0.0 else us_of_ns ns /. float_of_int c)

let overhead_pct ~traced ~plain =
  metric "trace_overhead_pct" "%" (if plain <= 0.0 then 0.0 else (traced -. plain) /. plain *. 100.0)

(* ---------------------------------------------------------------- *)
(* Probes                                                            *)

(* Median wall time of [f i] for i = 0, 1, ..., taking at least
   [min_samples] samples and then continuing until [budget_s] is spent
   (at most 4096 samples).  Returns (median us, samples). *)
let time_median ?(min_samples = 16) ~budget_s f =
  let samples = Stat.Floats.create () in
  let t0 = Proc.now_ns () in
  let i = ref 0 in
  while
    !i < min_samples || (Proc.seconds_since t0 < budget_s && !i < 4096)
  do
    let s = Proc.now_ns () in
    f !i;
    Stat.Floats.push samples (us_of_ns (Proc.now_ns () - s));
    incr i
  done;
  let sorted = Stat.sorted (Stat.Floats.to_array samples) in
  (Stat.percentile sorted 50.0, !i)

type policy = Exact | Sampled of { sample : int; seed : int }

type state = {
  inst : Bbc.Instance.t;
  config : Bbc.Config.t;
  csr : Bbc_graph.Csr.t;
  dist : int array;
  rows : int array array;
}

let state (inst, config) =
  let n = Bbc.Instance.n inst in
  {
    inst;
    config;
    csr = Bbc.Config.to_csr inst config;
    dist = Array.make n Bbc_graph.Csr.unreachable;
    rows =
      Array.init (min n Bbc_graph.Csr.batch_width) (fun _ ->
          Array.make n Bbc_graph.Csr.unreachable);
  }

(* The layer probes every traced workload reports, run on that
   workload's states: probe i visits state [i mod #states] at a node
   spread over the graph.  Best responses follow the workload's own
   policy (exact, or sampled on large-n where exact is out of reach).
   Observability is on so the best-response subset counter moves. *)
let probe ~budget_s policy states =
  let states = Array.of_list (List.map state states) in
  let pick i =
    let s = states.(i mod Array.length states) in
    let n = Bbc.Instance.n s.inst in
    (s, (i / Array.length states * 7919) mod n)
  in
  let scratch = Bbc_graph.Csr.create_scratch () in
  let time name f =
    let us, samples = time_median ~budget_s f in
    metric ~samples name "us" us
  in
  Bbc_obs.enable ();
  let c0 = counters () in
  let br_calls = ref 0 in
  let best_response =
    time "best_response.call_us" (fun i ->
        let s, u = pick i in
        incr br_calls;
        match policy with
        | Exact -> ignore (Bbc.Best_response.exact s.inst s.config u)
        | Sampled { sample; seed } ->
            let rng = Bbc_prng.Splitmix.create (seed + i) in
            ignore (Bbc.Best_response.sampled ~rng ~sample s.inst s.config u))
  in
  let c1 = counters () in
  Bbc_obs.disable ();
  [
    time "config.to_csr_us" (fun i ->
        let s, _ = pick i in
        ignore (Sys.opaque_identity (Bbc.Config.to_csr s.inst s.config)));
    time "csr.sssp_us" (fun i ->
        let s, u = pick i in
        Bbc_graph.Csr.sssp s.csr scratch ~src:u ~dist:s.dist;
        Bbc_graph.Csr.reset scratch s.dist);
    time "csr.sssp_batch_us" (fun i ->
        let s, u = pick i in
        let n = Bbc.Instance.n s.inst in
        let srcs = Array.init (Array.length s.rows) (fun j -> (u + j) mod n) in
        Bbc_graph.Csr.sssp_batch s.csr scratch ~srcs ~rows:s.rows;
        Bbc_graph.Csr.reset_rows scratch ~rows:s.rows);
    time "eval.node_cost_us" (fun i ->
        let s, u = pick i in
        ignore (Bbc.Eval.node_cost s.inst s.config u));
    best_response;
    metric ~samples:!br_calls "best_response.subsets_per_call" "count"
      (ratio (delta c0 c1 "best_response.subsets") !br_calls);
  ]
