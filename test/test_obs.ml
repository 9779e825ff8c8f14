(* Bbc_obs: metrics sharding, span nesting, JSONL sink, disabled no-op. *)

module Obs = Bbc_obs

let with_obs_enabled f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.clear_sinks ();
      Obs.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Minimal JSON parser — enough to genuinely parse every line the JSONL
   sink emits (objects, strings with escapes, numbers, booleans). *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d in %S" msg !pos s)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < len && (s.[!pos] = ' ' || s.[!pos] = '\t') do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char b '\\'; advance (); go ()
          | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > len then fail "bad \\u escape";
              let hex = String.sub s !pos 4 in
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code -> Buffer.add_char b (Char.chr (code land 0xff))
              | None -> fail "bad \\u escape");
              pos := !pos + 4;
              go ()
          | _ -> fail "bad escape")
      | Some c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); J_obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((key, v) :: acc)
            | Some '}' -> advance (); List.rev ((key, v) :: acc)
            | _ -> fail "expected , or }"
          in
          J_obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); J_arr [] end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          J_arr (items [])
        end
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> pos := !pos + 4; J_bool true
    | Some 'f' -> pos := !pos + 5; J_bool false
    | Some 'n' -> pos := !pos + 4; J_null
    | Some _ ->
        let start = !pos in
        while
          !pos < len
          && (match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false)
        do
          advance ()
        done;
        if !pos = start then fail "expected value";
        J_num (float_of_string (String.sub s start (!pos - start)))
    | None -> fail "empty"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

(* ------------------------------------------------------------------ *)

let test_disabled_noop () =
  Obs.reset ();
  Alcotest.(check bool) "disabled by default" false (Obs.enabled ());
  let c = Obs.counter "test.disabled_counter" in
  Obs.incr c;
  Obs.add c 41;
  Alcotest.(check int) "counter untouched" 0 (Obs.counter_value c);
  let h = Obs.histogram "test.disabled_hist" in
  Obs.observe h 1024;
  Alcotest.(check int) "histogram untouched" 0 (Obs.histogram_count h);
  let g = Obs.gauge "test.disabled_gauge" in
  Obs.set_gauge g 3.5;
  Alcotest.(check (float 0.0)) "gauge untouched" 0.0 (Obs.gauge_value g);
  let ran = ref false in
  let v =
    Obs.with_span "test.disabled_span" (fun () ->
        ran := true;
        17)
  in
  Alcotest.(check bool) "span body ran" true !ran;
  Alcotest.(check int) "span is transparent" 17 v;
  Alcotest.(check bool) "no span aggregate recorded" true
    (not (List.exists (fun (n, _, _) -> n = "test.disabled_span") (Obs.span_stats ())))

let test_counter_basics () =
  with_obs_enabled @@ fun () ->
  let c = Obs.counter "test.counter" in
  Alcotest.(check int) "starts at 0" 0 (Obs.counter_value c);
  Obs.incr c;
  Obs.add c 9;
  Alcotest.(check int) "incr + add" 10 (Obs.counter_value c);
  let c' = Obs.counter "test.counter" in
  Obs.incr c';
  Alcotest.(check int) "same name, same counter" 11 (Obs.counter_value c);
  Alcotest.check_raises "name clash across kinds"
    (Invalid_argument "Bbc_obs: \"test.counter\" is already registered with another kind")
    (fun () -> ignore (Obs.histogram "test.counter"))

let test_histogram_buckets () =
  with_obs_enabled @@ fun () ->
  let h = Obs.histogram "test.hist" in
  (* Bucket b holds [2^b, 2^(b+1)); bucket 0 also catches v <= 1. *)
  List.iter (Obs.observe h) [ 0; 1; 2; 3; 4; 7; 8; 1024; 2047 ];
  let buckets = Obs.histogram_buckets h in
  Alcotest.(check int) "bucket 0: {0,1}" 2 buckets.(0);
  Alcotest.(check int) "bucket 1: {2,3}" 2 buckets.(1);
  Alcotest.(check int) "bucket 2: {4,7}" 2 buckets.(2);
  Alcotest.(check int) "bucket 3: {8}" 1 buckets.(3);
  Alcotest.(check int) "bucket 10: {1024,2047}" 2 buckets.(10);
  Alcotest.(check int) "count" 9 (Obs.histogram_count h);
  Alcotest.(check int) "sum" (0 + 1 + 2 + 3 + 4 + 7 + 8 + 1024 + 2047) (Obs.histogram_sum h)

let test_shard_merge_parallel () =
  with_obs_enabled @@ fun () ->
  let c = Obs.counter "test.parallel_counter" in
  let h = Obs.histogram "test.parallel_hist" in
  let n = 20_000 in
  (* Forced multi-domain fan-out: updates land in per-domain shards and
     must merge to exact totals. *)
  let out =
    Bbc_parallel.parallel_init ~jobs:4 n (fun i ->
        Obs.incr c;
        Obs.observe h 4;
        i)
  in
  Alcotest.(check (array int)) "init untouched by instrumentation" (Array.init n Fun.id) out;
  Alcotest.(check int) "counter merges exactly" n (Obs.counter_value c);
  Alcotest.(check int) "histogram count merges exactly" n (Obs.histogram_count h);
  Alcotest.(check int) "histogram sum merges exactly" (4 * n) (Obs.histogram_sum h);
  Alcotest.(check int) "all samples in bucket 2" n (Obs.histogram_buckets h).(2)

let test_span_nesting () =
  with_obs_enabled @@ fun () ->
  let seen = ref [] in
  Obs.add_sink (fun e -> seen := e :: !seen);
  let v =
    Obs.with_span "outer" (fun () ->
        Obs.with_span "inner" (fun () ->
            Obs.event "tick";
            42))
  in
  Obs.drain ();
  Alcotest.(check int) "span transparent" 42 v;
  let trace =
    List.rev !seen |> List.filter (fun (e : Obs.ev) -> e.kind <> Obs.Snapshot)
  in
  match trace with
  | [ o_open; i_open; tick; i_close; o_close ] ->
      Alcotest.(check string) "outer opens first" "outer" o_open.Obs.name;
      Alcotest.(check string) "inner opens second" "inner" i_open.Obs.name;
      Alcotest.(check string) "instant inside inner" "tick" tick.Obs.name;
      Alcotest.(check string) "inner closes before outer" "inner" i_close.Obs.name;
      Alcotest.(check string) "outer closes last" "outer" o_close.Obs.name;
      Alcotest.(check int) "outer is top-level" 0 o_open.Obs.parent;
      Alcotest.(check int) "inner's parent is outer" o_open.Obs.id i_open.Obs.parent;
      Alcotest.(check int) "tick's parent is inner" i_open.Obs.id tick.Obs.parent;
      Alcotest.(check bool) "seq strictly increases" true
        (let rec mono = function
           | (a : Obs.ev) :: (b : Obs.ev) :: rest -> a.seq < b.seq && mono (b :: rest)
           | _ -> true
         in
         mono trace);
      let stats = Obs.span_stats () in
      Alcotest.(check bool) "outer aggregated" true
        (List.exists (fun (n, c, _) -> n = "outer" && c = 1) stats);
      Alcotest.(check bool) "inner aggregated" true
        (List.exists (fun (n, c, _) -> n = "inner" && c = 1) stats)
  | evs ->
      Alcotest.failf "expected 5 trace events, got %d" (List.length evs)

let test_span_exception_safety () =
  with_obs_enabled @@ fun () ->
  (try Obs.with_span "raiser" (fun () -> failwith "boom") with Failure _ -> ());
  (* The span closed: a sibling span opened afterwards is top-level. *)
  let seen = ref [] in
  Obs.add_sink (fun e -> seen := e :: !seen);
  Obs.with_span "after" (fun () -> ());
  Obs.drain ();
  let opens =
    List.filter (fun (e : Obs.ev) -> e.kind = Obs.Span_open) (List.rev !seen)
  in
  match opens with
  | [ after ] -> Alcotest.(check int) "stack unwound on raise" 0 after.Obs.parent
  | _ -> Alcotest.fail "expected exactly one span_open"

let test_jsonl_roundtrip () =
  with_obs_enabled @@ fun () ->
  let path = Filename.temp_file "bbc_obs_test" ".jsonl" in
  let oc = open_out path in
  Obs.add_sink (Obs.jsonl_sink oc);
  let c = Obs.counter "test.jsonl_counter" in
  Obs.add c 7;
  Obs.with_span "jsonl.span"
    ~attrs:[ ("n", Obs.Int 5); ("label", Obs.Str "tricky \"quote\"\nline") ]
    (fun () ->
      Obs.event "jsonl.event"
        ~attrs:[ ("f", Obs.Float 1.5); ("ok", Obs.Bool true); ("neg", Obs.Int (-3)) ]);
  Obs.drain ();
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check bool) "several lines emitted" true (List.length lines >= 4);
  (* Every emitted line parses, with the required fields. *)
  List.iter
    (fun line ->
      match parse_json line with
      | J_obj fields ->
          List.iter
            (fun key ->
              Alcotest.(check bool)
                (Printf.sprintf "line has %S" key)
                true (List.mem_assoc key fields))
            [ "seq"; "ts_ns"; "domain"; "kind"; "name"; "id"; "parent"; "attrs" ]
      | _ -> Alcotest.failf "line is not an object: %s" line)
    lines;
  (* The escaped string survives the round trip. *)
  let span_open =
    List.find_map
      (fun line ->
        match parse_json line with
        | J_obj fields
          when List.assoc_opt "kind" fields = Some (J_str "span_open")
               && List.assoc_opt "name" fields = Some (J_str "jsonl.span") ->
            Some fields
        | _ -> None)
      lines
  in
  (match span_open with
  | Some fields -> (
      match List.assoc "attrs" fields with
      | J_obj attrs ->
          Alcotest.(check bool) "string attr round-trips" true
            (List.assoc_opt "label" attrs = Some (J_str "tricky \"quote\"\nline"))
      | _ -> Alcotest.fail "attrs is not an object")
  | None -> Alcotest.fail "span_open line not found");
  (* The counter snapshot carries the merged value. *)
  let snapshot =
    List.find_map
      (fun line ->
        match parse_json line with
        | J_obj fields
          when List.assoc_opt "kind" fields = Some (J_str "snapshot")
               && List.assoc_opt "name" fields = Some (J_str "test.jsonl_counter") ->
            Some fields
        | _ -> None)
      lines
  in
  match snapshot with
  | Some fields -> (
      match List.assoc "attrs" fields with
      | J_obj attrs ->
          Alcotest.(check bool) "snapshot value" true
            (List.assoc_opt "value" attrs = Some (J_num 7.0))
      | _ -> Alcotest.fail "attrs is not an object")
  | None -> Alcotest.fail "counter snapshot line not found"

let test_metrics_only_buffers_nothing () =
  with_obs_enabled @@ fun () ->
  (* No sink registered: events must not accumulate (tracing () = false),
     while metrics still record. *)
  Alcotest.(check bool) "tracing off without sinks" false (Obs.tracing ());
  Obs.event "test.unbuffered";
  let seen = ref 0 in
  Obs.add_sink (fun (e : Obs.ev) -> if e.kind <> Obs.Snapshot then Stdlib.incr seen);
  Obs.drain ();
  Alcotest.(check int) "no buffered events from sink-less period" 0 !seen

let test_reset () =
  with_obs_enabled @@ fun () ->
  let c = Obs.counter "test.reset_counter" in
  Obs.incr c;
  Obs.with_span "test.reset_span" (fun () -> ());
  Obs.reset ();
  Alcotest.(check int) "counter zeroed, handle still valid" 0 (Obs.counter_value c);
  Alcotest.(check (list (triple string int int))) "span aggregates cleared" []
    (Obs.span_stats ());
  Obs.incr c;
  Alcotest.(check int) "counter usable after reset" 1 (Obs.counter_value c)

let suite =
  [
    Alcotest.test_case "disabled mode is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "counter basics + registry" `Quick test_counter_basics;
    Alcotest.test_case "histogram bucket boundaries" `Quick test_histogram_buckets;
    Alcotest.test_case "shard merge under Bbc_parallel" `Quick test_shard_merge_parallel;
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "span closes on exception" `Quick test_span_exception_safety;
    Alcotest.test_case "JSONL sink round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "metrics-only buffers no events" `Quick test_metrics_only_buffers_nothing;
    Alcotest.test_case "reset keeps handles valid" `Quick test_reset;
  ]
