(* bbc_bench: the end-to-end benchmark of the BBC laboratory.
   README.md documents the workloads, metrics and bounds.

     bbc_bench [--workload NAME]... [--seed N] [--seconds S]
               [--trace 0|1|FILE] [--out FILE]
     bbc_bench diff A.json [A2.json...] -- B.json [B2.json...]
     bbc_bench --smoke

   One named workload runs in this process and ends with one JSON line
   ({"correct","attempted","failed","metrics"}): the end-to-end metrics,
   or with --trace the per-layer ones.  Several (default: all) run one
   child process each.

   BENCHMARK.json's command is run as [command --workload W --seed N
   --seconds S --trace 0|1], with S its run_seconds: --seconds is how
   that run length reaches the benchmark.  Left out, it is
   [default_seconds], or [toy_seconds] with --toy. *)

module Json = Bbc.Json

let default_seconds = 18.0
let toy_seconds = 0.2

type opts = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float option;
  mutable trace : string;  (** "0", "1" or a JSONL path *)
  mutable out : string option;
  mutable toy : bool;
  mutable bbc : string;
  mutable spec : string;
  mutable work_dir : string;
  mutable benchmark : string;
  mutable prep : string option;
  mutable smoke : bool;
}

let usage =
  "usage: bbc_bench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1|FILE] [--out FILE]\n\
  \       bbc_bench diff A.json [A2.json...] -- B.json [B2.json...] [--benchmark FILE]\n\
  \       bbc_bench --smoke\n\
   workloads: serve-read serve-walk campaign experiments large-n (default: all)"

let die msg =
  prerr_endline ("bbc_bench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse argv =
  let o =
    {
      workloads = [];
      seed = 1;
      seconds = None;
      trace = "0";
      out = None;
      toy = false;
      bbc = Filename.concat (Filename.dirname Sys.executable_name) "../../bin/bbc_cli.exe";
      spec = "bench/e2e/campaign.json";
      work_dir = "_build/bench-e2e";
      benchmark = "BENCHMARK.json";
      prep = None;
      smoke = false;
    }
  in
  let num conv flag v = match conv v with Some x -> x | None -> die (flag ^ ": bad value " ^ v) in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        if w = "all" then o.workloads <- Workloads.all
        else if List.mem w Workloads.all then o.workloads <- o.workloads @ [ w ]
        else die ("unknown workload " ^ w);
        go rest
    | "--seed" :: v :: rest ->
        o.seed <- num int_of_string_opt "--seed" v;
        go rest
    | "--seconds" :: v :: rest ->
        let s = num float_of_string_opt "--seconds" v in
        if not (s > 0.0) then die "--seconds must be positive";
        o.seconds <- Some s;
        go rest
    | "--trace" :: v :: rest ->
        o.trace <- v;
        go rest
    | "--out" :: v :: rest ->
        o.out <- Some v;
        go rest
    | "--toy" :: rest ->
        o.toy <- true;
        go rest
    | "--bbc" :: v :: rest ->
        o.bbc <- v;
        go rest
    | "--spec" :: v :: rest ->
        o.spec <- v;
        go rest
    | "--work-dir" :: v :: rest ->
        o.work_dir <- v;
        go rest
    | "--benchmark" :: v :: rest ->
        o.benchmark <- v;
        go rest
    | "--prep" :: w :: rest ->
        o.prep <- Some w;
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | a :: _ -> die ("unexpected argument " ^ a)
  in
  go argv;
  if o.workloads = [] then o.workloads <- Workloads.all;
  o

let traced o = o.trace <> "0"

let seconds o =
  match o.seconds with Some s -> s | None -> if o.toy then toy_seconds else default_seconds

let cfg o ~trace_file =
  {
    Workloads.seed = o.seed;
    seconds = seconds o;
    toy = o.toy;
    trace = trace_file;
    bbc = o.bbc;
    spec = o.spec;
    work_dir = o.work_dir;
    self_exe = Sys.executable_name;
  }

(* ---------------------------------------------------------------- *)
(* Results                                                           *)

let floats l = Json.List (List.map (fun f -> Json.Float f) l)

let header o ~loadavg_before =
  Json.Obj
    [
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("cpu", Json.Str (Proc.cpu_model ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str (Proc.git_commit ()));
      ("seed", Json.Int o.seed);
      ("seconds", Json.Float (seconds o));
      ("trace", Json.Bool (traced o));
      ("toy", Json.Bool o.toy);
      ("loadavg_before", floats loadavg_before);
      ("loadavg_after", floats (Proc.loadavg ()));
    ]

let metrics_json ~samples ms =
  Json.Obj
    (List.map
       (fun (m : Layers.metric) ->
         ( m.name,
           Json.Obj
             ([ ("value", Json.Float m.value); ("unit", Json.Str m.unit) ]
             @ if samples then [ ("samples", Json.Int m.samples) ] else []) ))
       ms)

let workload_json name (r : Workloads.outcome) =
  Json.Obj
    [
      ("name", Json.Str name);
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "checks",
        Json.List
          (List.map (fun (c, ok) -> Json.Obj [ ("check", Json.Str c); ("ok", Json.Bool ok) ]) r.checks) );
      ("metrics", metrics_json ~samples:true r.e2e);
      ("layers", metrics_json ~samples:true (r.per_layer @ r.detail));
      ("table", Json.List (List.map Layers.row_to_json r.table));
    ]

let write_results path ~header workloads =
  Proc.mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Json.to_string (Json.Obj [ ("header", header); ("workloads", Json.List workloads) ]));
      output_char oc '\n')

let pp_metrics (ms : Layers.metric list) =
  List.iter
    (fun (m : Layers.metric) ->
      Printf.printf "  %-36s %14.6g %-6s (%d samples)\n" m.name m.value m.unit m.samples)
    ms

(* ---------------------------------------------------------------- *)
(* Modes                                                             *)

let run_one o name =
  let loadavg_before = Proc.loadavg () in
  let trace_file =
    match o.trace with
    | "0" -> None
    | "1" -> Some (Filename.concat o.work_dir ("trace-" ^ name ^ ".jsonl"))
    | file -> Some file
  in
  let r = Workloads.run (cfg o ~trace_file) name in
  Printf.printf "%s (seed %d, %g s, %s)\n" name o.seed (seconds o)
    (if traced o then "traced" else "untraced");
  pp_metrics r.e2e;
  if traced o then begin
    Printf.printf " per-layer\n";
    pp_metrics (r.per_layer @ r.detail);
    Layers.pp_table Format.std_formatter ~workload:name r.table;
    Format.pp_print_flush Format.std_formatter ()
  end;
  List.iter (fun (c, ok) -> Printf.printf "  check %-4s %s\n" (if ok then "ok" else "FAIL") c) r.checks;
  Option.iter
    (fun path ->
      write_results path ~header:(header o ~loadavg_before) [ workload_json name r ])
    o.out;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (r.failed = 0));
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("metrics", metrics_json ~samples:false (if traced o then r.per_layer else r.e2e));
          ]));
  if r.failed = 0 then 0 else 1

(* Child invocation of one workload; returns (exit status, stdout lines). *)
let spawn_workload o name ~out ~trace ~relay =
  let args =
    [ "--workload"; name; "--seed"; string_of_int o.seed ]
    @ (match o.seconds with Some s -> [ "--seconds"; Printf.sprintf "%.17g" s ] | None -> [])
    @ [ "--trace"; trace; "--out"; out; "--bbc"; o.bbc; "--spec"; o.spec; "--work-dir"; o.work_dir ]
    @ if o.toy then [ "--toy" ] else []
  in
  let c = Proc.spawn Sys.executable_name args in
  let lines = ref [] in
  let rec read () =
    match Proc.Lines.read_line ~timeout_s:600.0 c.out with
    | Some l ->
        if relay then print_endline l;
        lines := l :: !lines;
        read ()
    | None -> ()
  in
  read ();
  let status = Proc.reap c.pid in
  Proc.close_out c;
  (status, List.rev !lines)

let part_path o name = Filename.concat o.work_dir (Printf.sprintf "part-%d-%s.json" (Unix.getpid ()) name)

let read_part path =
  let j = Diff.read_json path in
  Sys.remove path;
  List.hd (Diff.list_field "workloads" j)

let run_many o =
  let loadavg_before = Proc.loadavg () in
  let results =
    List.map
      (fun name ->
        let out = part_path o name in
        let trace =
          match o.trace with
          | ("0" | "1") as t -> t
          | file -> Filename.remove_extension file ^ "." ^ name ^ ".jsonl"
        in
        let status, _ = spawn_workload o name ~out ~trace ~relay:true in
        (name, status, if Sys.file_exists out then Some (read_part out) else None))
      o.workloads
  in
  Option.iter
    (fun path ->
      write_results path ~header:(header o ~loadavg_before)
        (List.filter_map (fun (_, _, w) -> w) results))
    o.out;
  Printf.printf "\n%-12s %-8s %s\n" "workload" "status" "end-to-end metrics";
  List.iter
    (fun (name, status, w) ->
      let ms =
        match Option.bind w (Json.member "metrics") with
        | Some (Json.Obj ms) ->
            String.concat "  "
              (List.map
                 (fun (m, v) ->
                   Printf.sprintf "%s=%.4g %s" m
                     (Option.value ~default:Float.nan (Option.bind (Json.member "value" v) Json.to_float))
                     (match Json.member "unit" v with Some (Json.Str u) -> u | _ -> ""))
                 ms)
        | _ -> "-"
      in
      Printf.printf "%-12s %-8s %s\n" name (if status = Unix.WEXITED 0 then "ok" else "FAILED") ms)
    results;
  if List.for_all (fun (_, s, _) -> s = Unix.WEXITED 0) results then 0 else 1

(* Every workload at toy size, traced, checked against BENCHMARK.json:
   the final line names every per_layer metric, the results file every
   end_to_end metric, and no correctness check failed.  Plus one
   untraced run, whose final line must name the end_to_end metrics. *)
let smoke o =
  let t0 = Proc.now_ns () in
  let bench = Diff.read_json o.benchmark in
  let expected group =
    List.sort compare
      (List.map (fun m -> (Diff.str "name" m, Diff.str "unit" m)) (Diff.list_field group bench))
  in
  let names_units = function
    | Some (Json.Obj ms) ->
        List.sort compare
          (List.map (fun (m, v) -> (m, match Json.member "unit" v with Some (Json.Str u) -> u | _ -> "")) ms)
    | _ -> []
  in
  let problems = ref [] in
  let expect what ok = if not ok then problems := what :: !problems in
  let last_line lines =
    Option.bind (List.nth_opt (List.rev lines) 0) (fun l -> Result.to_option (Json.of_string l))
  in
  let run name ~trace =
    let out = part_path o name in
    let status, lines = spawn_workload { o with toy = true } name ~out ~trace ~relay:false in
    let tag = Printf.sprintf "%s (trace %s)" name trace in
    expect (tag ^ ": exit 0") (status = Unix.WEXITED 0);
    let final = last_line lines in
    expect (tag ^ ": final line correct") (Option.bind final (Json.member "correct") = Some (Json.Bool true));
    expect (tag ^ ": final line failed = 0") (Option.bind final (Json.member "failed") = Some (Json.Int 0));
    let group = if trace = "1" then "per_layer" else "end_to_end" in
    expect (tag ^ ": final line names every " ^ group ^ " metric")
      (names_units (Option.bind final (Json.member "metrics")) = expected group);
    if Sys.file_exists out then begin
      let w = read_part out in
      expect (tag ^ ": results name every end_to_end metric")
        (names_units (Json.member "metrics" w) = expected "end_to_end")
    end
    else expect (tag ^ ": results file written") false
  in
  List.iter (fun name -> run name ~trace:"1") Workloads.all;
  run "large-n" ~trace:"0";
  Proc.rm_rf o.work_dir;
  List.iter (fun p -> prerr_endline ("smoke: FAIL " ^ p)) (List.rev !problems);
  Printf.printf "smoke: %s (%d workloads, %.1f s)\n"
    (if !problems = [] then "ok" else "failed")
    (List.length Workloads.all) (Proc.seconds_since t0);
  if !problems = [] then 0 else 1

let main () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | "diff" :: rest ->
      let rec split a = function
        | "--" :: b -> (List.rev a, b)
        | x :: r -> split (x :: a) r
        | [] -> die "diff needs A files, --, and B files"
      in
      let a, b = split [] rest in
      let benchmark, b =
        match List.rev b with
        | f :: "--benchmark" :: rb -> (f, List.rev rb)
        | _ -> ("BENCHMARK.json", b)
      in
      if a = [] || b = [] then die "diff needs at least one file on each side";
      Diff.run ~benchmark a b
  | args -> (
      let o = parse args in
      match o.prep with
      | Some name ->
          Workloads.prep (cfg o ~trace_file:None) name;
          print_endline "ready";
          0
      | None ->
          if o.smoke then smoke o
          else (
            match o.workloads with [ name ] -> run_one o name | _ -> run_many o))

let () =
  match main () with
  | code -> exit code
  | exception Failure msg ->
      prerr_endline ("bbc_bench: " ^ msg);
      exit 2
