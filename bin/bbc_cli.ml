(* bbc — command-line laboratory for Bounded Budget Connection games.

   Subcommands:
     experiment  run reproduction experiments (by id, or all)
     dynamics    run a best-response walk on a generated instance
     search      exhaustively enumerate pure Nash equilibria
     verify      check stability of a named construction
     dot         emit Graphviz for a construction
     reduce      build the Theorem-2 instance from a DIMACS file
     save/load   serialize constructions to the bbc text/JSON formats
     convert     validate + re-emit an instance/config file (text <-> JSON)
     serve       long-running game-analysis daemon (line-delimited JSON)
     bigbench    large-n streaming build + landmark social-cost estimate
     fuzz        differential fuzzing of every engine pair, with shrinking
     campaign    checkpointed Monte-Carlo sweeps (run/resume/report)

   Observability: --metrics prints the Bbc_obs summary on exit and
   --trace-out FILE writes the structured JSONL event stream; both are
   available on the analysis subcommands. *)

open Cmdliner

let fmt = Format.std_formatter

(* ---------------------------------------------------------------- *)
(* Observability options.                                             *)

type obs = { metrics : bool; trace_out : string option }

let obs_opts =
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Enable the observability subsystem and print its summary (span \
             timings, counter table, histograms) on exit.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Enable the observability subsystem and write the structured \
             trace (JSONL, one event per line: span open/close, activation \
             events, metric snapshots) to $(docv).")
  in
  Term.(const (fun metrics trace_out -> { metrics; trace_out }) $ metrics $ trace_out)

(* Human rendering of the dynamics activation stream: the same events the
   JSONL sink sees, formatted as the historical --trace output. *)
let render_activation (e : Bbc_obs.ev) =
  if e.kind = Bbc_obs.Instant && e.name = "dynamics.activation" then begin
    let geti k =
      match List.assoc_opt k e.attrs with Some (Bbc_obs.Int i) -> i | _ -> 0
    in
    let gets k =
      match List.assoc_opt k e.attrs with Some (Bbc_obs.Str s) -> s | _ -> ""
    in
    Format.fprintf fmt "  step %4d (round %3d): node %3d -> [%s] cost %d -> %d@."
      (geti "step") (geti "round") (geti "node") (gets "strategy") (geti "old_cost")
      (geti "new_cost")
  end

(* Run [k] under the requested observability setup, then drain the trace,
   close the sink file and print the summary.  [text_trace] additionally
   routes the event stream through [render_activation] (dynamics
   --trace). *)
let with_obs ?(text_trace = false) o k =
  let oc = Option.map open_out o.trace_out in
  if o.metrics || oc <> None || text_trace then Bbc_obs.enable ();
  Option.iter (fun oc -> Bbc_obs.add_sink (Bbc_obs.jsonl_sink oc)) oc;
  if text_trace then Bbc_obs.add_sink render_activation;
  Fun.protect
    ~finally:(fun () ->
      Bbc_obs.drain ();
      Option.iter close_out oc;
      if o.metrics then Bbc_obs.pp_summary fmt;
      Bbc_obs.clear_sinks ())
    k

(* ---------------------------------------------------------------- *)
(* Named constructions now live in Bbc.Catalog, shared with the
   server's [gen] endpoint; this shim keeps the historical call-site
   shape. *)

let named_configs = Bbc.Catalog.names

let build_config name ~n ~k ~h ~l ~seed =
  Bbc.Catalog.build name { Bbc.Catalog.n; k; h; l; seed }

(* ---------------------------------------------------------------- *)
(* Common options.                                                    *)

let name_arg =
  let doc =
    "Named construction: " ^ String.concat ", " named_configs ^ "."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)

let n_opt = Arg.(value & opt int 12 & info [ "n"; "nodes" ] ~doc:"Number of nodes.")
let k_opt = Arg.(value & opt int 2 & info [ "k"; "budget" ] ~doc:"Budget / out-degree.")
let h_opt = Arg.(value & opt int 2 & info [ "height" ] ~doc:"Willows tree height.")
let l_opt = Arg.(value & opt int 3 & info [ "tail" ] ~doc:"Willows/max-anarchy tail length.")
let seed_opt = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.")

let objective_opt =
  let objective_conv =
    Arg.enum (List.map (fun o -> (Bbc.Objective.to_string o, o)) Bbc.Objective.[ Sum; Max ])
  in
  Arg.(value & opt objective_conv Bbc.Objective.Sum & info [ "objective" ] ~doc:"Cost objective: sum or max.")

(* Applied for its side effect on the Bbc_parallel pool before the
   command body runs; every parallel call site then picks it up as the
   default job count. *)
let jobs_opt =
  let doc =
    "Domain-pool size for parallel evaluation (cost sweeps, stability \
     checks, exhaustive search).  Defaults to $(b,BBC_JOBS) or the \
     machine's recommended domain count; 1 forces sequential execution."
  in
  let jobs_conv =
    let parse s =
      match int_of_string_opt s with
      | Some j when j >= 1 -> Ok j
      | _ -> Error (`Msg "expected a positive integer")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let apply = function
    | Some j -> Bbc_parallel.set_default_jobs j
    | None -> ()
  in
  Term.(const apply $ Arg.(value & opt (some jobs_conv) None & info [ "j"; "jobs" ] ~docv:"N" ~doc))

(* ---------------------------------------------------------------- *)

(* The advertised id range comes from the registry, so it stays honest
   as experiments are added. *)
let experiment_range =
  match Bbc_experiments.Registry.all with
  | [] -> "none"
  | first :: rest ->
      let last = List.fold_left (fun _ e -> e) first rest in
      Printf.sprintf "%s..%s" first.Bbc_experiments.Registry.id
        last.Bbc_experiments.Registry.id

let experiment_cmd =
  let ids =
    let doc = Printf.sprintf "Experiment ids (%s); all when omitted." experiment_range in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let full = Arg.(value & flag & info [ "full" ] ~doc:"Larger sweeps.") in
  let run () obs ids full =
    let quick = not full in
    match ids with
    | [] ->
        with_obs obs (fun () ->
            Bbc_experiments.Registry.run_all ~quick fmt;
            `Ok ())
    | ids -> (
        let entries = List.map Bbc_experiments.Registry.find ids in
        match List.find_opt Option.is_none entries with
        | Some _ ->
            `Error
              (false, Printf.sprintf "unknown experiment id; use %s" experiment_range)
        | None ->
            with_obs obs (fun () ->
                List.iter
                  (fun e ->
                    Bbc_experiments.Registry.run_entry ~quick fmt (Option.get e))
                  entries;
                if obs.metrics then Bbc_experiments.Registry.pp_timings fmt;
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run reproduction experiments (paper figures/claims).")
    Term.(ret (const run $ jobs_opt $ obs_opts $ ids $ full))

let verify_cmd =
  let run () obs name n k h l seed objective =
    match build_config name ~n ~k ~h ~l ~seed with
    | Error e -> `Error (false, e)
    | Ok (instance, config) ->
        with_obs obs @@ fun () ->
        let stable = Bbc.Stability.is_stable ~objective instance config in
        Format.fprintf fmt "construction: %s (n=%d)@." name (Bbc.Instance.n instance);
        Format.fprintf fmt "objective:    %a@." Bbc.Objective.pp objective;
        Format.fprintf fmt "social cost:  %d@."
          (Bbc.Eval.social_cost ~objective instance config);
        Format.fprintf fmt "stable:       %b@." stable;
        (if not stable then
           match Bbc.Stability.find_deviation ~objective instance config with
           | Some d -> Format.fprintf fmt "deviation:    %a@." Bbc.Stability.pp_deviation d
           | None -> ());
        `Ok ()
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Check whether a named construction is a pure Nash equilibrium.")
    Term.(
      ret
        (const run $ jobs_opt $ obs_opts $ name_arg $ n_opt $ k_opt $ h_opt $ l_opt
       $ seed_opt $ objective_opt))

let dynamics_cmd =
  let scheduler_opt =
    let scheduler_conv =
      Arg.enum
        [
          ("round-robin", Bbc.Dynamics.Round_robin);
          ("max-cost", Bbc.Dynamics.Max_cost_first);
        ]
    in
    Arg.(value & opt scheduler_conv Bbc.Dynamics.Round_robin & info [ "scheduler" ] ~doc:"round-robin or max-cost.")
  in
  let rounds_opt =
    Arg.(value & opt int 200 & info [ "rounds" ] ~doc:"Round budget, at least 0.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Print every deviation (the dynamics.activation event stream \
             rendered as text; --trace-out writes the same stream as JSONL).")
  in
  let run () obs name n k h l seed objective scheduler rounds trace =
    if rounds < 0 then `Error (false, "--rounds must be at least 0")
    else
      match build_config name ~n ~k ~h ~l ~seed with
      | Error e -> `Error (false, e)
      | Ok (instance, config) ->
          with_obs ~text_trace:trace obs @@ fun () ->
          let outcome =
            Bbc.Dynamics.run ~objective ~scheduler ~max_rounds:rounds instance config
          in
          (* Surface the buffered activation events (text and/or JSONL)
             before the outcome summary, as the ad-hoc printer used to. *)
          Bbc_obs.flush_events ();
          Format.fprintf fmt "outcome: %a@." Bbc.Dynamics.pp_outcome outcome;
          let final = Bbc.Dynamics.final_config outcome in
          Format.fprintf fmt "final social cost: %d@."
            (Bbc.Eval.social_cost ~objective instance final);
          Format.fprintf fmt "strongly connected: %b@."
            (Bbc_graph.Scc.is_strongly_connected (Bbc.Config.to_graph instance final));
          `Ok ()
  in
  Cmd.v
    (Cmd.info "dynamics" ~doc:"Run a best-response walk on a named construction.")
    Term.(
      ret
        (const run $ jobs_opt $ obs_opts $ name_arg $ n_opt $ k_opt $ h_opt $ l_opt
       $ seed_opt $ objective_opt $ scheduler_opt $ rounds_opt $ trace))

let search_cmd =
  let limit_opt =
    Arg.(value & opt int 1 & info [ "limit" ] ~doc:"Stop after this many equilibria; at least 1.")
  in
  let max_profiles_opt =
    Arg.(
      value
      & opt int 100_000_000
      & info [ "max-profiles" ] ~doc:"Abort after examining this many profiles; at least 1.")
  in
  let run () obs name n k h l seed objective limit max_profiles =
    if limit < 1 then `Error (false, "--limit must be at least 1")
    else if max_profiles < 1 then `Error (false, "--max-profiles must be at least 1")
    else
      match build_config name ~n ~k ~h ~l ~seed with
      | Error e -> `Error (false, e)
      | Ok (instance, _) ->
          with_obs obs @@ fun () ->
          let r = Bbc.Exhaustive.search ~objective ~limit ~max_profiles instance in
          Format.fprintf fmt "construction: %s (n=%d)@." name (Bbc.Instance.n instance);
          Format.fprintf fmt "objective:         %a@." Bbc.Objective.pp objective;
          Format.fprintf fmt "profiles examined: %d@." r.examined;
          Format.fprintf fmt "equilibria found:  %d@." (List.length r.equilibria);
          Format.fprintf fmt "search complete:   %b@." r.complete;
          (match r.equilibria with
          | c :: _ ->
              Format.fprintf fmt "first equilibrium social cost: %d@."
                (Bbc.Eval.social_cost ~objective instance c)
          | [] -> ());
          `Ok ()
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:"Exhaustively search a construction's instance for pure Nash equilibria.")
    Term.(
      ret
        (const run $ jobs_opt $ obs_opts $ name_arg $ n_opt $ k_opt $ h_opt $ l_opt
       $ seed_opt $ objective_opt $ limit_opt $ max_profiles_opt))

let dot_cmd =
  let run name n k h l seed =
    match build_config name ~n ~k ~h ~l ~seed with
    | Error e -> `Error (false, e)
    | Ok (instance, config) ->
        print_string (Bbc_graph.Dot.to_dot (Bbc.Config.to_graph instance config));
        `Ok ()
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit the realized graph of a construction in Graphviz format.")
    Term.(ret (const run $ name_arg $ n_opt $ k_opt $ h_opt $ l_opt $ seed_opt))

let reduce_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"DIMACS CNF file.")
  in
  let run file =
    match Bbc_sat.Dimacs.parse_file file with
    | Error e -> `Error (false, e)
    | Ok formula -> (
        let t = Bbc.Reduction.build formula in
        Format.fprintf fmt "formula: %d vars, %d clauses@."
          (Bbc_sat.Cnf.num_vars formula)
          (Bbc_sat.Cnf.num_clauses formula);
        Format.fprintf fmt "game: %d nodes@." (Bbc.Instance.n t.instance);
        match Bbc_sat.Solver.solve formula with
        | Bbc_sat.Solver.Sat assignment ->
            let config = Bbc.Reduction.encode t assignment in
            Format.fprintf fmt "satisfiable; encoded profile stable: %b@."
              (Bbc.Stability.is_stable t.instance config);
            `Ok ()
        | Bbc_sat.Solver.Unsat ->
            Format.fprintf fmt "unsatisfiable; the game has no pure NE (Theorem 2)@.";
            `Ok ())
  in
  Cmd.v
    (Cmd.info "reduce" ~doc:"Run the Theorem-2 reduction on a DIMACS formula.")
    Term.(ret (const run $ file))

let save_cmd =
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Instance output file.")
  in
  let config_out =
    Arg.(value & opt (some string) None & info [ "config" ] ~docv:"FILE" ~doc:"Also save the configuration here.")
  in
  let run name n k h l seed out config_out =
    match build_config name ~n ~k ~h ~l ~seed with
    | Error e -> `Error (false, e)
    | Ok (instance, config) -> (
        match Bbc.Codec.save_instance out instance with
        | Error e -> `Error (false, e)
        | Ok () -> (
            Format.fprintf fmt "wrote %s (%d nodes)@." out (Bbc.Instance.n instance);
            match config_out with
            | None -> `Ok ()
            | Some path -> (
                match Bbc.Codec.save_config path config with
                | Error e -> `Error (false, e)
                | Ok () ->
                    Format.fprintf fmt "wrote %s@." path;
                    `Ok ())))
  in
  Cmd.v
    (Cmd.info "save" ~doc:"Serialize a named construction to the bbc text format.")
    Term.(ret (const run $ name_arg $ n_opt $ k_opt $ h_opt $ l_opt $ seed_opt $ out $ config_out))

let load_cmd =
  let instance_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"INSTANCE" ~doc:"Instance file.")
  in
  let config_file =
    Arg.(value & pos 1 (some file) None & info [] ~docv:"CONFIG" ~doc:"Optional configuration file to verify.")
  in
  let run () instance_file config_file objective =
    match Bbc.Codec.load_instance instance_file with
    | Error e -> `Error (false, e)
    | Ok instance -> (
        Format.fprintf fmt "loaded %a@." Bbc.Instance.pp instance;
        match config_file with
        | None -> `Ok ()
        | Some path -> (
            match Bbc.Codec.load_config path with
            | Error e -> `Error (false, e)
            | Ok config ->
                if Bbc.Config.n config <> Bbc.Instance.n instance then
                  `Error (false, "configuration size does not match instance")
                else begin
                  Format.fprintf fmt "feasible: %b@." (Bbc.Config.feasible instance config);
                  Format.fprintf fmt "social cost (%a): %d@." Bbc.Objective.pp objective
                    (Bbc.Eval.social_cost ~objective instance config);
                  Format.fprintf fmt "stable: %b@."
                    (Bbc.Stability.is_stable ~objective instance config);
                  `Ok ()
                end))
  in
  Cmd.v
    (Cmd.info "load" ~doc:"Load an instance (and optionally verify a configuration).")
    Term.(ret (const run $ jobs_opt $ instance_file $ config_file $ objective_opt))

let convert_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Instance or configuration file (text or JSON; auto-detected).")
  in
  let to_fmt =
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Json & info [ "to" ] ~docv:"FORMAT" ~doc:"Output format: text or json.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file (stdout when omitted).")
  in
  (* Read, validate, normalize, re-emit: the payload kind and input
     format are both self-describing (bbc-instance/bbc-config headers in
     text, "type" fields in JSON), so conversion needs no flags beyond
     the target format. *)
  let run file to_fmt out =
    match
      let text =
        let ic = open_in_bin file in
        Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
        really_input_string ic (in_channel_length ic)
      in
      match Bbc.Codec.instance_of_any_string text with
      | Ok instance -> (
          match to_fmt with
          | `Text -> Ok (Bbc.Codec.instance_to_string instance)
          | `Json -> Ok (Bbc.Json.to_string (Bbc.Codec.instance_to_json instance) ^ "\n"))
      | Error inst_err -> (
          match Bbc.Codec.config_of_any_string text with
          | Ok config -> (
              match to_fmt with
              | `Text -> Ok (Bbc.Codec.config_to_string config)
              | `Json -> Ok (Bbc.Json.to_string (Bbc.Codec.config_to_json config) ^ "\n"))
          | Error cfg_err ->
              Error
                (Printf.sprintf "%s: not an instance (%s) nor a configuration (%s)"
                   file inst_err cfg_err))
    with
    | Error e -> `Error (false, e)
    | Ok payload -> (
        match out with
        | None ->
            print_string payload;
            `Ok ()
        | Some path ->
            let oc = open_out_bin path in
            Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
                output_string oc payload);
            Format.fprintf fmt "wrote %s@." path;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Read, validate and re-emit an instance or configuration (text <-> JSON).")
    Term.(ret (const run $ file $ to_fmt $ out))

let serve_cmd =
  let socket_opt =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on this Unix-domain socket.")
  in
  let tcp_opt =
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Listen on this TCP endpoint (port 0 binds an ephemeral port; the resolved endpoint is printed on a 'listening' line).  May be combined with --socket to serve both.")
  in
  let stdio =
    Arg.(value & flag & info [ "stdio" ] ~doc:"Serve one implicit connection on stdin/stdout instead of a socket (testing).")
  in
  let workers_opt =
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N" ~doc:"Must be 1 (the default): the sharded multi-worker tier was retired.  The daemon is one process with one engine; distinct sessions run in parallel on its --jobs domain pool.")
  in
  let queue_opt =
    Arg.(value & opt int 256 & info [ "queue" ] ~docv:"N" ~doc:"Admission-queue bound; requests beyond it are rejected with an overloaded error (backpressure).")
  in
  let batch_opt =
    Arg.(value & opt int 64 & info [ "batch" ] ~docv:"N" ~doc:"Max requests executed per scheduler batch.")
  in
  let sessions_opt =
    Arg.(value & opt int 1024 & info [ "max-sessions" ] ~docv:"N" ~doc:"Live-session bound.")
  in
  let run () obs socket tcp stdio workers queue batch sessions =
    if stdio && (socket <> None || tcp <> None) then
      `Error (true, "--stdio is mutually exclusive with --socket/--tcp")
    else if workers <> 1 then
      `Error (true, "--workers must be 1: the sharded multi-worker tier was retired")
    else if (not stdio) && socket = None && tcp = None then
      `Error (true, "a listener is required: --socket PATH, --tcp HOST:PORT, or --stdio")
    else if queue < 1 || batch < 1 || sessions < 1 then
      `Error (true, "--queue, --batch and --max-sessions must be positive")
    else begin
      (* The daemon always runs with observability on: the stats
         endpoint and latency histograms are part of the service.
         --metrics/--trace-out only control where the data goes on
         exit. *)
      Bbc_obs.enable ();
      let oc = Option.map open_out obs.trace_out in
      Option.iter (fun oc -> Bbc_obs.add_sink (Bbc_obs.jsonl_sink oc)) oc;
      let engine =
        {
          (Bbc_server.Engine.default_config ()) with
          Bbc_server.Engine.queue_cap = queue;
          max_batch = batch;
          session_cap = sessions;
        }
      in
      let serve () =
        if stdio then Bbc_server.Front.run_stdio ~engine
        else begin
          let listeners =
            (match socket with
            | Some path -> [ Bbc_server.Net.listen_unix path ]
            | None -> [])
            @
            match tcp with
            | Some spec -> (
                match Bbc_server.Net.parse_tcp spec with
                | Ok (host, port) ->
                    [ Bbc_server.Net.listen_tcp ~host ~port () ]
                | Error e -> failwith ("--tcp: " ^ e))
            | None -> []
          in
          (* Scripts and the bench harness parse these lines to learn
             ephemeral ports; keep the format stable. *)
          let announce () =
            List.iter
              (fun (l : Bbc_server.Net.listener) ->
                Printf.printf "listening on %s\n%!"
                  (Bbc_server.Net.endpoint_to_string l.l_endpoint))
              listeners
          in
          Bbc_server.Front.run ~on_ready:announce ~engine listeners
        end
      in
      match
        Fun.protect
          ~finally:(fun () ->
            Bbc_obs.drain ();
            Option.iter close_out oc;
            if obs.metrics then Bbc_obs.pp_summary fmt;
            Bbc_obs.clear_sinks ())
          serve
      with
      | () -> `Ok ()
      | exception Failure msg -> `Error (false, msg)
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the game-analysis service: line-delimited JSON requests (sessions, \
          cached costs, batching, deadlines, backpressure) over \
          Unix-domain sockets and/or TCP, with graceful drain on \
          SIGINT/SIGTERM.")
    Term.(
      ret
        (const run $ jobs_opt $ obs_opts $ socket_opt
       $ tcp_opt $ stdio $ workers_opt $ queue_opt $ batch_opt $ sessions_opt))

let bigbench_cmd =
  let family_arg =
    let doc =
      "Streaming family: " ^ String.concat ", " Bbc.Catalog.streaming_names ^ "."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FAMILY" ~doc)
  in
  let landmarks_opt =
    Arg.(
      value & opt int 64
      & info [ "landmarks" ] ~docv:"L"
          ~doc:
            "Landmark sources for the social-cost estimate, at least 2 ($(docv) \
             >= n runs the exact sweep).")
  in
  let rounds_opt =
    Arg.(
      value & opt int 0
      & info [ "rounds" ] ~docv:"R"
          ~doc:
            "Sampled best-response rounds to run after the estimate, at least \
             0 (0 = none).  This materializes the per-node strategy arrays, so keep \
             n moderate.")
  in
  let sample_opt =
    Arg.(
      value & opt int 8
      & info [ "sample" ] ~docv:"S"
          ~doc:"Candidate targets sampled per activation when --rounds > 0; at least 1.")
  in
  let timings_opt =
    Arg.(
      value & flag
      & info [ "timings" ]
          ~doc:
            "Also print wall-clock build/sweep timings and allocation rates \
             (off by default so the output stays reproducible).")
  in
  let run () obs family n k seed landmarks rounds sample objective timings =
    if landmarks < 2 then `Error (false, "--landmarks must be at least 2")
    else if rounds < 0 then `Error (false, "--rounds must be at least 0")
    else if rounds > 0 && sample < 1 then `Error (false, "--sample must be at least 1")
    else
      let params = { Bbc.Catalog.default_params with n; k; seed } in
      (* Time the streaming build itself: allocation delta over the catalog
         call is the builder's footprint (CSR arrays + instance). *)
      let a0 = Gc.allocated_bytes () in
      let t0 = Unix.gettimeofday () in
      match Bbc.Catalog.build_streaming family params with
      | Error e -> `Error (false, e)
      | Ok (instance, csr) ->
          let t1 = Unix.gettimeofday () in
          let a1 = Gc.allocated_bytes () in
          with_obs obs @@ fun () ->
          let nn = Bbc.Instance.n instance in
          Format.fprintf fmt "family:    %s (n=%d, k=%d, seed=%d)@." family nn k seed;
          Format.fprintf fmt "edges:     %d@." (Bbc_graph.Csr.edge_count csr);
          if timings then
            Format.fprintf fmt "build:     %.1f ms  (%.0f ns/node, %.1f words/node allocated)@."
              ((t1 -. t0) *. 1e3)
              ((t1 -. t0) *. 1e9 /. float_of_int nn)
              ((a1 -. a0) /. 8.0 /. float_of_int nn);
          let t2 = Unix.gettimeofday () in
          let e = Bbc.Approx.social_cost ~objective ~landmarks ~seed instance csr in
          let t3 = Unix.gettimeofday () in
          Format.fprintf fmt "landmarks: %d of %d@." e.Bbc.Approx.landmarks nn;
          if e.Bbc.Approx.exact then
            Format.fprintf fmt "social cost (%a): %.0f (exact)@." Bbc.Objective.pp
              objective e.Bbc.Approx.value
          else
            Format.fprintf fmt "social cost (%a): %.1f +- %.1f (estimated)@."
              Bbc.Objective.pp objective e.Bbc.Approx.value e.Bbc.Approx.bound;
          if timings then
            Format.fprintf fmt "sweep:     %.1f ms  (%.2f ms/landmark)@."
              ((t3 -. t2) *. 1e3)
              ((t3 -. t2) *. 1e3 /. float_of_int (max 1 e.Bbc.Approx.landmarks));
          if rounds > 0 then begin
            match Bbc.Catalog.build_streaming_reference family params with
            | Error e -> `Error (false, e)
            | Ok (instance, config) ->
                let outcome =
                  Bbc.Dynamics.run ~objective
                    ~policy:(Bbc.Dynamics.Sampled_best_response { sample; seed })
                    ~scheduler:Bbc.Dynamics.Round_robin ~max_rounds:rounds instance
                    config
                in
                Format.fprintf fmt "dynamics:  %a@." Bbc.Dynamics.pp_outcome outcome;
                let final = Bbc.Dynamics.final_config outcome in
                let fcsr = Bbc.Config.to_csr instance final in
                let e = Bbc.Approx.social_cost ~objective ~landmarks ~seed instance fcsr in
                if e.Bbc.Approx.exact then
                  Format.fprintf fmt "final social cost: %.0f (exact)@." e.Bbc.Approx.value
                else
                  Format.fprintf fmt "final social cost: %.1f +- %.1f (estimated)@."
                    e.Bbc.Approx.value e.Bbc.Approx.bound;
                `Ok ()
          end
          else `Ok ()
  in
  Cmd.v
    (Cmd.info "bigbench"
       ~doc:
         "Build a large streaming instance straight into a CSR snapshot and \
          estimate its social cost from landmark sweeps (optionally followed \
          by sampled best-response rounds).")
    Term.(
      ret
        (const run $ jobs_opt $ obs_opts $ family_arg $ n_opt
       $ k_opt $ seed_opt $ landmarks_opt $ rounds_opt $ sample_opt $ objective_opt
       $ timings_opt))

let fuzz_cmd =
  let suite_opt =
    let doc =
      "Differential suite to run: all (= "
      ^ String.concat ", " Bbc_fuzz.Diff.all_suites
      ^ "), or one of "
      ^ String.concat ", " Bbc_fuzz.Diff.suite_names
      ^ ".  selfcheck is expected to fail: it fuzzes a deliberately broken \
         test-only oracle to prove the harness finds and shrinks planted bugs."
    in
    Arg.(value & opt string "all" & info [ "suite" ] ~docv:"NAME" ~doc)
  in
  let count_opt =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"Generated cases per property.")
  in
  let shrink_opt =
    Arg.(
      value & opt int 1000
      & info [ "max-shrink-steps" ] ~docv:"N"
          ~doc:"Property evaluations allowed while shrinking a failure.")
  in
  let run () obs suite seed count max_shrink_steps =
    if count < 1 || max_shrink_steps < 0 then
      `Error (true, "--count must be positive and --max-shrink-steps non-negative")
    else
      match Bbc_fuzz.Diff.expand_suites suite with
      | Error e -> `Error (false, e)
      | Ok names ->
          with_obs obs @@ fun () ->
          let opts = { Bbc_fuzz.Diff.seed; count; max_shrink_steps } in
          let failures = ref 0 in
          let total_props = ref 0 in
          let total_cases = ref 0 and total_discards = ref 0 in
          let rec go = function
            | [] -> `Ok ()
            | name :: rest -> (
                match Bbc_fuzz.Diff.run_suite opts name with
                | Error e -> `Error (false, e)
                | Ok reports ->
                    Format.fprintf fmt "suite %s@." name;
                    List.iter
                      (fun (r : Bbc_fuzz.Diff.prop_report) ->
                        incr total_props;
                        total_cases := !total_cases + r.stats.Bbc_fuzz.Runner.cases;
                        total_discards :=
                          !total_discards + r.stats.Bbc_fuzz.Runner.discards;
                        match r.failure with
                        | None ->
                            Format.fprintf fmt "  %-20s %d cases, %d discards: ok@."
                              r.name r.stats.Bbc_fuzz.Runner.cases
                              r.stats.Bbc_fuzz.Runner.discards
                        | Some f ->
                            incr failures;
                            Format.fprintf fmt
                              "  %-20s FAIL at case %d (%d shrink steps)@." r.name
                              f.case f.steps_used;
                            Format.fprintf fmt "    mismatch: %s@." f.message;
                            Format.fprintf fmt "    shrunk instance n = %d@."
                              (Bbc.Instance.n f.instance);
                            Format.fprintf fmt "    instance: %s@."
                              (Bbc.Json.to_string
                                 (Bbc.Codec.instance_to_json f.instance));
                            Option.iter
                              (fun c ->
                                Format.fprintf fmt "    config: %s@."
                                  (Bbc.Json.to_string (Bbc.Codec.config_to_json c)))
                              f.config;
                            if f.detail <> "" then
                              Format.fprintf fmt "    input: %s@." f.detail;
                            Format.fprintf fmt
                              "    replay: bbc fuzz --suite %s --seed %d --count %d@."
                              r.suite seed count)
                      reports;
                    go rest)
          in
          let result = go names in
          (match result with
          | `Ok () ->
              Format.fprintf fmt
                "fuzz: %d properties, %d cases, %d discards, %d failures@."
                !total_props !total_cases !total_discards !failures
          | `Error _ -> ());
          if !failures > 0 then `Error (false, "fuzzing found mismatches")
          else result
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz every engine pair (list-graph vs CSR, batched vs \
          per-source sweeps, best response vs its reference enumeration and \
          exhaustive search, server vs direct calls, campaign units vs \
          dynamics) with structured generators and integrated shrinking; \
          mismatches are shrunk to minimal instances and printed as \
          bbc-convert-loadable JSON.")
    Term.(
      ret
        (const run $ jobs_opt $ obs_opts $ suite_opt
       $ seed_opt $ count_opt $ shrink_opt))

(* ---------------------------------------------------------------- *)
(* Campaigns: checkpointed Monte-Carlo sweeps over the Bbc_campaign
   runner.  --jobs is the shared pool option, so Runner sees jobs=None
   and picks up the (possibly overridden) Bbc_parallel default. *)

let campaign_out_opt =
  Arg.(
    required
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR"
        ~doc:
          "Campaign directory: holds the canonical spec binding, the \
           checkpoint chunks and report.json.  A directory is bound to the \
           first spec run in it.")

let campaign_common =
  let checkpoint_every =
    Arg.(
      value & opt int 256
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Units per checkpoint chunk (atomic JSONL shard); at least 1.")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ] ~doc:"Report per-chunk progress on stderr.")
  in
  Term.(
    const (fun checkpoint_every progress -> (checkpoint_every, progress))
    $ checkpoint_every $ progress)

let exec_campaign obs spec ~out (checkpoint_every, progress) =
  let opts = { Bbc_campaign.Runner.jobs = None; checkpoint_every } in
  let on_chunk ~done_units ~total =
    if progress then Format.eprintf "campaign: %d/%d units@." done_units total
  in
  with_obs obs @@ fun () ->
  match Bbc_campaign.Runner.run ~on_chunk opts ~dir:out spec with
  | Error e -> `Error (false, e)
  | Ok o ->
      Format.fprintf fmt "campaign: %s@." spec.Bbc_campaign.Spec.name;
      Format.fprintf fmt "units:    %d total, %d skipped, %d executed, %d quarantined@."
        o.Bbc_campaign.Runner.total o.skipped o.executed o.quarantined;
      Format.fprintf fmt "report:   %s@." o.report_path;
      `Ok ()

let campaign_run_cmd =
  let spec_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "spec" ] ~docv:"FILE" ~doc:"Campaign spec (JSON).")
  in
  let run () obs spec_file out common =
    match Bbc_campaign.Spec.load spec_file with
    | Error e -> `Error (false, e)
    | Ok spec -> exec_campaign obs spec ~out common
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run (or continue) a campaign: expand the spec grid, skip \
          checkpointed units, execute the rest, write report.json.")
    Term.(
      ret
        (const run $ jobs_opt $ obs_opts $ spec_arg
       $ campaign_out_opt $ campaign_common))

let campaign_resume_cmd =
  let run () obs out common =
    let spec_path = Bbc_campaign.Checkpoint.spec_path out in
    match Bbc_campaign.Spec.load spec_path with
    | Error e -> `Error (false, e)
    | Ok spec -> exec_campaign obs spec ~out common
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Resume a campaign from its directory's own spec binding — \
          equivalent to re-running with the original spec file.")
    Term.(
      ret (const run $ jobs_opt $ obs_opts $ campaign_out_opt
         $ campaign_common))

let campaign_report_cmd =
  let run out =
    match Bbc_campaign.Runner.report ~dir:out with
    | Error e -> `Error (false, e)
    | Ok json ->
        print_endline (Bbc.Json.to_string json);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Recompute and print the aggregate report from the directory's \
          checkpoints without executing anything.")
    Term.(ret (const run $ campaign_out_opt))

let campaign_cmd =
  Cmd.group
    (Cmd.info "campaign"
       ~doc:
         "Checkpointed, resumable Monte-Carlo sweeps: a JSON spec expands to \
          a deterministic grid of dynamics trials, executed on the domain \
          pool, with crash-safe JSONL checkpoints and a streaming aggregate \
          report.")
    [ campaign_run_cmd; campaign_resume_cmd; campaign_report_cmd ]

let () =
  let doc = "Bounded Budget Connection (BBC) games laboratory" in
  let info = Cmd.info "bbc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            experiment_cmd;
            verify_cmd;
            dynamics_cmd;
            search_cmd;
            dot_cmd;
            reduce_cmd;
            save_cmd;
            load_cmd;
            convert_cmd;
            serve_cmd;
            bigbench_cmd;
            fuzz_cmd;
            campaign_cmd;
          ]))
