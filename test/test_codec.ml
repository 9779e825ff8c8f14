module Codec = Bbc.Codec
module I = Bbc.Instance
module C = Bbc.Config

let instances_equal a b =
  let n = I.n a in
  n = I.n b
  && I.penalty a = I.penalty b
  && List.for_all
       (fun u ->
         I.budget a u = I.budget b u
         && List.for_all
              (fun v ->
                u = v
                || I.weight a u v = I.weight b u v
                   && I.cost a u v = I.cost b u v
                   && I.length a u v = I.length b u v)
              (List.init n Fun.id))
       (List.init n Fun.id)

let test_uniform_roundtrip () =
  let inst = I.uniform ~n:7 ~k:3 in
  match Codec.instance_of_string (Codec.instance_to_string inst) with
  | Ok inst' ->
      Alcotest.(check bool) "uniform roundtrip" true (instances_equal inst inst');
      Alcotest.(check bool) "still uniform" true (I.uniform_k inst' <> None)
  | Error e -> Alcotest.fail e

let test_general_roundtrip () =
  let weight = [| [| 0; 3; 0 |]; [| 1; 0; 2 |]; [| 0; 5; 0 |] |] in
  let cost = [| [| 0; 2; 1 |]; [| 1; 0; 1 |]; [| 3; 1; 0 |] |] in
  let length = [| [| 1; 4; 1 |]; [| 2; 1; 1 |]; [| 1; 1; 1 |] |] in
  let inst = I.general ~weight ~cost ~length ~budget:[| 2; 1; 3 |] () in
  match Codec.instance_of_string (Codec.instance_to_string inst) with
  | Ok inst' -> Alcotest.(check bool) "general roundtrip" true (instances_equal inst inst')
  | Error e -> Alcotest.fail e

let test_gadget_roundtrip () =
  let inst = Bbc.Gadget.no_nash ~n:11 in
  match Codec.instance_of_string (Codec.instance_to_string inst) with
  | Ok inst' -> Alcotest.(check bool) "gadget roundtrip" true (instances_equal inst inst')
  | Error e -> Alcotest.fail e

let test_config_roundtrip () =
  let c = C.of_lists 5 [| [ 1; 3 ]; []; [ 0 ]; [ 2; 4 ]; [] |] in
  match Codec.config_of_string (Codec.config_to_string c) with
  | Ok c' -> Alcotest.(check bool) "config roundtrip" true (C.equal c c')
  | Error e -> Alcotest.fail e

let test_empty_config_roundtrip () =
  let c = C.empty 4 in
  match Codec.config_of_string (Codec.config_to_string c) with
  | Ok c' -> Alcotest.(check bool) "empty roundtrip" true (C.equal c c')
  | Error e -> Alcotest.fail e

let test_comments_and_blanks () =
  let text = "bbc-config v1\n# a comment\nn 3\n\n0: 1 # trailing\n" in
  match Codec.config_of_string text with
  | Ok c -> Alcotest.(check (list int)) "parsed" [ 1 ] (C.targets c 0)
  | Error e -> Alcotest.fail e

let test_errors () =
  let bad =
    [
      "";
      "nonsense";
      "bbc-config v1\nn x\n";
      "bbc-config v1\nn 2\n5: 1\n";
      "bbc-config v1\nn -1\n";
      "bbc-config v1\nn 9999999999999\n";
    ]
  in
  List.iter
    (fun text ->
      Alcotest.(check bool) "rejected" true
        (Result.is_error (Codec.config_of_string text)))
    bad;
  Alcotest.(check bool) "bad instance" true
    (Result.is_error (Codec.instance_of_string "bbc-instance v1\nn 2\npenalty 9\nuniform 5\n"))

(* An instance whose n * (n - 1) * max_weight * M reaches 2^62 is a
   parse error in both formats, one weight unit above an accepted one. *)
let test_cost_bound_errors () =
  let under = max_int / 108 in
  let weight w = Array.init 4 (fun u -> Array.init 4 (fun v -> if v = 3 && u <> 3 then w else 1)) in
  let inst = I.of_weights ~k:1 (weight under) in
  (* Raise the first occurrence of the heavy weight by one. *)
  let over s =
    let w = string_of_int under in
    let rec find i = if String.sub s i (String.length w) = w then i else find (i + 1) in
    let i = find 0 in
    String.sub s 0 i ^ string_of_int (under + 1)
    ^ String.sub s (i + String.length w) (String.length s - i - String.length w)
  in
  let text = Codec.instance_to_string inst in
  let json = Bbc.Json.to_string (Codec.instance_to_json inst) in
  Alcotest.(check bool) "text just under parses" true
    (Result.is_ok (Codec.instance_of_string text));
  Alcotest.(check bool) "json just under parses" true
    (Result.is_ok (Codec.instance_of_any_string json));
  Alcotest.(check bool) "text just over rejected" true
    (Result.is_error (Codec.instance_of_string (over text)));
  Alcotest.(check bool) "json just over rejected" true
    (Result.is_error (Codec.instance_of_any_string (over json)))

(* A uniform game's n * (n - 1) * 4n bound is a parse error too:
   n = 2^20 round-trips, one node more is rejected in both formats
   (whatever the declared penalty). *)
let test_uniform_bound_errors () =
  let n = 1 lsl 20 in
  let inst = I.uniform ~n ~k:1 in
  let bump s =
    let w = string_of_int n in
    let rec find i = if String.sub s i (String.length w) = w then i else find (i + 1) in
    let i = find 0 in
    String.sub s 0 i ^ string_of_int (n + 1)
    ^ String.sub s (i + String.length w) (String.length s - i - String.length w)
  in
  let text = Codec.instance_to_string inst in
  let json = Bbc.Json.to_string (Codec.instance_to_json inst) in
  Alcotest.(check bool) "text n = 2^20 parses" true (Result.is_ok (Codec.instance_of_string text));
  Alcotest.(check bool) "json n = 2^20 parses" true
    (Result.is_ok (Codec.instance_of_any_string json));
  Alcotest.(check bool) "text n = 2^20 + 1 rejected" true
    (Result.is_error (Codec.instance_of_string (bump text)));
  Alcotest.(check bool) "json n = 2^20 + 1 rejected" true
    (Result.is_error (Codec.instance_of_any_string (bump json)))

let test_file_roundtrip () =
  let dir = Filename.temp_file "bbc" "" in
  Sys.remove dir;
  let path = dir ^ ".game" in
  let inst = I.uniform ~n:5 ~k:2 in
  (match Codec.save_instance path inst with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Codec.load_instance path with
  | Ok inst' -> Alcotest.(check bool) "file roundtrip" true (instances_equal inst inst')
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_json_instance_roundtrip () =
  let uniform = I.uniform ~n:7 ~k:3 in
  let weight = [| [| 0; 3; 0 |]; [| 1; 0; 2 |]; [| 0; 5; 0 |] |] in
  let cost = [| [| 0; 2; 1 |]; [| 1; 0; 1 |]; [| 3; 1; 0 |] |] in
  let length = [| [| 1; 4; 1 |]; [| 2; 1; 1 |]; [| 1; 1; 1 |] |] in
  let general = I.general ~weight ~cost ~length ~budget:[| 2; 1; 3 |] () in
  List.iter
    (fun (name, inst) ->
      match Codec.instance_of_json (Codec.instance_to_json inst) with
      | Ok inst' ->
          Alcotest.(check bool) (name ^ " json roundtrip") true (instances_equal inst inst')
      | Error e -> Alcotest.fail e)
    [ ("uniform", uniform); ("general", general) ]

let test_json_config_roundtrip () =
  let c = C.of_lists 5 [| [ 1; 3 ]; []; [ 0 ]; [ 2; 4 ]; [] |] in
  match Codec.config_of_json (Codec.config_to_json c) with
  | Ok c' -> Alcotest.(check bool) "config json roundtrip" true (C.equal c c')
  | Error e -> Alcotest.fail e

let test_json_costs_roundtrip () =
  let costs = [| 4; 0; 17 |] in
  let j = Codec.costs_to_json ~objective:Bbc.Objective.Max ~social:17 costs in
  match Codec.costs_of_json j with
  | Ok (objective, costs', social) ->
      Alcotest.(check bool) "objective" true (objective = Bbc.Objective.Max);
      Alcotest.(check (list int)) "costs" (Array.to_list costs) (Array.to_list costs');
      Alcotest.(check int) "social" 17 social
  | Error e -> Alcotest.fail e

(* The auto-detecting readers accept both formats; the shared wire
   protocol and `bbc convert` rely on this. *)
let test_any_string_detection () =
  let inst = I.uniform ~n:5 ~k:2 in
  let as_text = Codec.instance_to_string inst in
  let as_json = Bbc.Json.to_string (Codec.instance_to_json inst) in
  List.iter
    (fun (label, s) ->
      match Codec.instance_of_any_string s with
      | Ok inst' -> Alcotest.(check bool) label true (instances_equal inst inst')
      | Error e -> Alcotest.fail e)
    [ ("text detected", as_text); ("json detected", as_json) ];
  let c = C.of_lists 3 [| [ 1 ]; [ 2 ]; [] |] in
  (match Codec.config_of_any_string (Bbc.Json.to_string (Codec.config_to_json c)) with
  | Ok c' -> Alcotest.(check bool) "config json detected" true (C.equal c c')
  | Error e -> Alcotest.fail e);
  (* a JSON payload of the wrong type is rejected, not misparsed *)
  Alcotest.(check bool) "type mismatch rejected" true
    (Result.is_error (Codec.instance_of_any_string (Bbc.Json.to_string (Codec.config_to_json c))))

let test_json_errors () =
  let bad =
    [
      "{}";
      "{\"type\":\"bbc-instance\",\"version\":1}";
      "{\"type\":\"bbc-instance\",\"version\":1,\"n\":0,\"penalty\":1,\"uniform_k\":1}";
      "{\"type\":\"bbc-instance\",\"version\":1,\"n\":2,\"penalty\":9,\"uniform_k\":5}";
    ]
  in
  List.iter
    (fun s ->
      match Bbc.Json.of_string s with
      | Error e -> Alcotest.fail e
      | Ok j ->
          Alcotest.(check bool) ("rejects " ^ s) true
            (Result.is_error (Codec.instance_of_json j)))
    bad

let suite =
  [
    Alcotest.test_case "uniform roundtrip" `Quick test_uniform_roundtrip;
    Alcotest.test_case "json instance roundtrip" `Quick test_json_instance_roundtrip;
    Alcotest.test_case "json config roundtrip" `Quick test_json_config_roundtrip;
    Alcotest.test_case "json costs roundtrip" `Quick test_json_costs_roundtrip;
    Alcotest.test_case "format auto-detection" `Quick test_any_string_detection;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "general roundtrip" `Quick test_general_roundtrip;
    Alcotest.test_case "gadget roundtrip" `Quick test_gadget_roundtrip;
    Alcotest.test_case "config roundtrip" `Quick test_config_roundtrip;
    Alcotest.test_case "empty config" `Quick test_empty_config_roundtrip;
    Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "cost bound is a parse error" `Quick test_cost_bound_errors;
    Alcotest.test_case "uniform bound is a parse error" `Quick test_uniform_bound_errors;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
  ]
