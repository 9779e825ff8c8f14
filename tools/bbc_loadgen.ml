(* Closed-loop load generator for bbc serve: N concurrent connections
   (a single-threaded poll event loop, so N can reach the thousands)
   hammer identical sessions over a Unix-domain socket or TCP and
   report throughput, latency quantiles and the consistency verdict
   (identical queries must get byte-identical answers, across sessions
   too).  Used by scripts/check_server.sh as the soak gate and
   by hand for capacity probing.

   Usage:
     bbc_loadgen (--socket PATH | --tcp HOST:PORT)
                 [--conns N] [--total N] [--sessions N]
                 [--name CONSTRUCTION] [--n NODES] [--deadline-ms MS]
                 [--duration-s S] [--json] [--shutdown] *)

let () =
  let socket = ref "" in
  let tcp = ref "" in
  let conns = ref 4 in
  let total = ref 10_000 in
  let sessions = ref 1 in
  let name = ref "ring" in
  let n = ref 12 in
  let deadline_ms = ref 0 in
  let duration_s = ref 0.0 in
  let json = ref false in
  let shutdown = ref false in
  let spec =
    [
      ("--socket", Arg.Set_string socket, "PATH  Unix-domain server socket");
      ("--tcp", Arg.Set_string tcp, "HOST:PORT  TCP server endpoint");
      ("--conns", Arg.Set_int conns, "N  concurrent connections (default 4)");
      ("--total", Arg.Set_int total, "N  total requests across all connections (default 10000)");
      ("--sessions", Arg.Set_int sessions, "N  identical sessions to spread load over (default 1)");
      ("--name", Arg.Set_string name, "NAME  catalog construction for the sessions (default ring)");
      ("--n", Arg.Set_int n, "N  instance size (default 12)");
      ("--deadline-ms", Arg.Set_int deadline_ms, "MS  attach a deadline to every request (0 = none)");
      ("--duration-s", Arg.Set_float duration_s, "S  stop issuing after S seconds, even below --total (0 = no limit)");
      ("--json", Arg.Set json, "  emit the summary as JSON instead of text");
      ("--shutdown", Arg.Set shutdown, "  send a shutdown request after the run");
    ]
  in
  let usage = "bbc_loadgen (--socket PATH | --tcp HOST:PORT) [options]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let endpoint =
    match (!socket, !tcp) with
    | "", "" ->
        prerr_endline "bbc_loadgen: --socket or --tcp is required";
        exit 2
    | _, "" -> Bbc_server.Net.Unix_path !socket
    | "", spec -> (
        match Bbc_server.Net.parse_tcp spec with
        | Ok (host, port) -> Bbc_server.Net.Tcp (host, port)
        | Error e ->
            prerr_endline ("bbc_loadgen: --tcp: " ^ e);
            exit 2)
    | _ ->
        prerr_endline "bbc_loadgen: --socket and --tcp are mutually exclusive";
        exit 2
  in
  let deadline_ms = if !deadline_ms > 0 then Some !deadline_ms else None in
  let duration_s = if !duration_s > 0.0 then Some !duration_s else None in
  match
    Bbc_server.Loadgen.run ~endpoint ~conns:!conns ~total:!total
      ~sessions:!sessions ~name:!name ~n:!n ?deadline_ms ?duration_s ()
  with
  | Error e ->
      prerr_endline ("bbc_loadgen: " ^ e);
      exit 1
  | Ok s ->
      if !json then
        print_endline (Bbc.Json.to_string (Bbc_server.Loadgen.summary_to_json s))
      else begin
        Printf.printf "conns:            %d\n" s.conns;
        Printf.printf "sessions:         %d\n" s.sessions;
        Printf.printf "requests:         %d\n" s.requests;
        Printf.printf "errors:           %d\n" s.errors;
        Printf.printf "protocol errors:  %d\n" s.protocol_errors;
        Printf.printf "elapsed:          %.3f s\n" s.elapsed_s;
        Printf.printf "throughput:       %.0f req/s\n" s.req_per_s;
        Printf.printf "latency p50/p99:  %.3f / %.3f ms\n" s.p50_ms s.p99_ms;
        List.iter
          (fun (m : Bbc_server.Loadgen.method_stats) ->
            Printf.printf "  %-14s count %6d  p50 %.3f ms  p99 %.3f ms\n" m.meth
              m.count m.m_p50_ms m.m_p99_ms)
          s.by_method;
        Printf.printf "consistent:       %b\n" s.consistent
      end;
      if !shutdown then begin
        match Bbc_server.Loadgen.request_shutdown ~endpoint with
        | Ok () -> ()
        | Error e ->
            prerr_endline ("bbc_loadgen: shutdown: " ^ e);
            exit 1
      end;
      if s.protocol_errors > 0 || not s.consistent then exit 1
