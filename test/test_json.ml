module Json = Bbc.Json

let parse s =
  match Json.of_string s with Ok v -> v | Error e -> Alcotest.failf "parse %S: %s" s e

let check_str name expected v =
  Alcotest.(check string) name expected (Json.to_string v)

let test_print () =
  check_str "null" "null" Json.Null;
  check_str "bool" "true" (Json.Bool true);
  check_str "int" "-42" (Json.Int (-42));
  check_str "float" "1.5" (Json.Float 1.5);
  check_str "nan is null" "null" (Json.Float nan);
  check_str "string" "\"a\\\"b\\n\"" (Json.Str "a\"b\n");
  check_str "control escape" "\"\\u0001\"" (Json.Str "\001");
  check_str "list" "[1,[2],[]]"
    (Json.List [ Json.Int 1; Json.List [ Json.Int 2 ]; Json.List [] ]);
  check_str "object" "{\"a\":1,\"b\":{}}"
    (Json.Obj [ ("a", Json.Int 1); ("b", Json.Obj []) ])

let test_parse_scalars () =
  Alcotest.(check bool) "null" true (parse "null" = Json.Null);
  Alcotest.(check bool) "true" true (parse "true" = Json.Bool true);
  Alcotest.(check bool) "int" true (parse " -17 " = Json.Int (-17));
  Alcotest.(check bool) "float" true (parse "2.5" = Json.Float 2.5);
  Alcotest.(check bool) "exponent is float" true (parse "1e3" = Json.Float 1000.0);
  Alcotest.(check bool) "escapes" true (parse "\"a\\u0041\\n\"" = Json.Str "aA\n")

let test_parse_nested () =
  let v = parse "{\"xs\":[1,2,3],\"o\":{\"y\":null},\"s\":\"hi\"}" in
  Alcotest.(check (option (list int))) "int_list" (Some [ 1; 2; 3 ])
    (Option.bind (Json.member "xs" v) Json.int_list);
  Alcotest.(check bool) "nested member" true
    (Option.bind (Json.member "o" v) (Json.member "y") = Some Json.Null);
  Alcotest.(check bool) "str" true (Json.member "s" v = Some (Json.Str "hi"))

let test_roundtrip () =
  let cases =
    [
      "null"; "[]"; "{}"; "[1,2.5,\"x\",true,null]";
      "{\"a\":[{\"b\":-3}],\"c\":\"\\\"\"}";
    ]
  in
  List.iter
    (fun s -> Alcotest.(check string) s s (Json.to_string (parse s)))
    cases;
  (* printer -> parser closes the loop too *)
  let v =
    Json.Obj
      [ ("k", Json.List [ Json.Int 1; Json.Float 0.5; Json.Str "\t" ]) ]
  in
  Alcotest.(check bool) "print/parse" true (parse (Json.to_string v) = v)

let test_errors () =
  let bad =
    [ ""; "{"; "[1,]"; "{\"a\"}"; "nul"; "\"unterminated"; "1 2"; "{\"a\":1,}" ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (Result.is_error (Json.of_string s)))
    bad

(* Pathological nesting must come back as a parse error, never a
   Stack_overflow that could kill a server reading untrusted input. *)
let test_depth_limit () =
  let deep n = String.make n '[' ^ String.make n ']' in
  Alcotest.(check bool) "moderate nesting ok" true
    (Result.is_ok (Json.of_string (deep 100)));
  Alcotest.(check bool) "over the limit rejected" true
    (Result.is_error (Json.of_string (deep 600)));
  Alcotest.(check bool) "unclosed bracket bomb rejected" true
    (Result.is_error (Json.of_string (String.make 200_000 '[')));
  Alcotest.(check bool) "object nesting bomb rejected" true
    (Result.is_error
       (Json.of_string (String.concat "" (List.init 600 (fun _ -> "{\"a\":")))))

let test_accessors () =
  Alcotest.(check (option int)) "to_int" (Some 3) (Json.to_int (Json.Int 3));
  Alcotest.(check (option int)) "to_int float" None (Json.to_int (Json.Float 3.5));
  Alcotest.(check bool) "to_float of int" true
    (Json.to_float (Json.Int 2) = Some 2.0);
  Alcotest.(check (option bool)) "to_bool" (Some false) (Json.to_bool (Json.Bool false));
  Alcotest.(check bool) "member missing" true
    (Json.member "z" (Json.Obj [ ("a", Json.Null) ]) = None);
  Alcotest.(check bool) "int_list rejects mixed" true
    (Json.int_list (Json.List [ Json.Int 1; Json.Str "x" ]) = None)

let suite =
  [
    Alcotest.test_case "printer" `Quick test_print;
    Alcotest.test_case "parse scalars" `Quick test_parse_scalars;
    Alcotest.test_case "parse nested" `Quick test_parse_nested;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "depth limit" `Quick test_depth_limit;
    Alcotest.test_case "accessors" `Quick test_accessors;
  ]
