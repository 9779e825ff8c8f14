(* Robustness of the untrusted-input parsers: mutated copies of valid
   inputs must come back as [Ok] or [Error], never as an exception.
   Mutations are truncation, bit flips, an integer literal widened to 20
   digits, and 3000 nested '[' spliced in; the generator is seeded, so
   every run feeds the same inputs.  Each call must also finish within a
   wall-clock budget, so a parser that hangs fails by name. *)

module SM = Bbc_prng.Splitmix
module I = Bbc.Instance
module C = Bbc.Config
module Codec = Bbc.Codec
module Checkpoint = Bbc_campaign.Checkpoint

let protocol_line =
  {|{"id":1,"method":"cost","params":{"session":"s1","node":0},"deadline_ms":50}|}

let spec_text =
  {|{"type":"bbc-campaign","name":"p","seed":7,"seeds_per_point":2,"max_rounds":30,
     "points":[{"generator":{"kind":"budgets","max_budget":4},"n":7,"k":1},
               {"generator":{"kind":"catalog","name":"ring"},"n":5,"k":1}],
     "inits":["empty"],"schedulers":["round-robin"],"policies":["exact"],
     "objectives":["sum","max"]}|}

let general_instance () =
  let n = 4 in
  let table f = Array.init n (fun u -> Array.init n (fun v -> f u v)) in
  I.general
    ~weight:(table (fun u v -> (u + v) mod 3))
    ~cost:(table (fun _ v -> 1 + (v mod 2)))
    ~length:(table (fun u _ -> 1 + u))
    ~budget:[| 2; 1; 3; 2 |] ()

let checkpoint_lines () =
  let summary =
    {
      Bbc.Trial.outcome = Bbc.Trial.Converged;
      rounds = 3;
      steps = 17;
      deviations = 9;
      social_cost = 123;
      strongly_connected = true;
    }
  in
  List.map Checkpoint.entry_to_line
    [
      { Checkpoint.unit_id = 4; payload = Checkpoint.Done summary };
      { Checkpoint.unit_id = 5; payload = Checkpoint.Failed "boom" };
    ]

(* Each parser with the valid inputs its mutations start from. *)
let parsers () =
  let ok f s = Result.is_ok (f s) in
  [
    ( "Json.of_string",
      ok Bbc.Json.of_string,
      [ {|{"a":[1,-2.5e3,"xé\n",true,false,null,{"b":{}}]}|}; protocol_line ] );
    ("Protocol.parse_request", ok Bbc_server.Protocol.parse_request, [ protocol_line ]);
    ( "Codec.instance_of_string",
      ok Codec.instance_of_string,
      [ Codec.instance_to_string (I.uniform ~n:5 ~k:2); Codec.instance_to_string (general_instance ()) ]
    );
    ( "Codec.config_of_string",
      ok Codec.config_of_string,
      [ Codec.config_to_string (C.of_lists 5 [| [ 1; 3 ]; []; [ 0 ]; [ 4 ]; [ 2 ] |]) ] );
    ("Spec.of_string", ok Bbc_campaign.Spec.of_string, [ spec_text ]);
    ("Checkpoint.entry_of_line", ok Checkpoint.entry_of_line, checkpoint_lines ());
  ]

let truncate rng s = String.sub s 0 (SM.int rng (String.length s + 1))

let flip_bits rng s =
  if s = "" then s
  else begin
    let b = Bytes.of_string s in
    for _ = 1 to 1 + SM.int rng 3 do
      let i = SM.int rng (Bytes.length b) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl SM.int rng 8)))
    done;
    Bytes.to_string b
  end

let is_digit c = c >= '0' && c <= '9'

(* The digit run at or after a random offset, replaced by a 20-digit
   integer (past max_int); inserted at the offset when there is none. *)
let huge_int rng s =
  let n = String.length s in
  let start = SM.int rng (n + 1) in
  let rec find i = if i >= n || is_digit s.[i] then i else find (i + 1) in
  let i = find start in
  let rec stop j = if j < n && is_digit s.[j] then stop (j + 1) else j in
  let j = stop i in
  let big = if SM.bool rng then "99999999999999999999" else "12345678901234567890" in
  String.sub s 0 i ^ big ^ String.sub s j (n - j)

let deep_nesting rng s =
  let i = SM.int rng (String.length s + 1) in
  String.sub s 0 i ^ String.make 3000 '[' ^ String.sub s i (String.length s - i)

let mutate rng s =
  match SM.int rng 4 with
  | 0 -> truncate rng s
  | 1 -> flip_bits rng s
  | 2 -> huge_int rng s
  | _ -> deep_nesting rng s

(* A parse call slower than this counts as a hang: every input here is
   a few KiB at most, so a correct parser answers in microseconds and
   the budget only catches super-linear blow-ups. *)
let budget_s = 0.1

(* Fail if the call on [s] that started at [t0] overran the budget. *)
let within_budget name s t0 =
  let dt = Unix.gettimeofday () -. t0 in
  if dt > budget_s then
    Alcotest.failf "%s took %.0f ms (budget %.0f ms) on input starting %S" name (dt *. 1e3)
      (budget_s *. 1e3)
      (String.sub s 0 (min 60 (String.length s)))

let test_seeds_parse () =
  List.iter
    (fun (name, parse, seeds) ->
      List.iteri
        (fun i s ->
          let t0 = Unix.gettimeofday () in
          let accepted = parse s in
          within_budget name s t0;
          Alcotest.(check bool) (Printf.sprintf "%s seed %d" name i) true accepted)
        seeds)
    (parsers ())

let test_mutations_never_raise () =
  let rng = SM.create 20260417 in
  List.iter
    (fun (name, parse, seeds) ->
      let seeds = Array.of_list seeds in
      let rejected = ref 0 in
      for _ = 1 to 1500 do
        (* Stack two mutations half the time. *)
        let s = mutate rng (SM.choose rng seeds) in
        let s = if SM.bool rng then mutate rng s else s in
        let t0 = Unix.gettimeofday () in
        (match parse s with
        | accepted -> if not accepted then incr rejected
        | exception e -> Alcotest.failf "%s raised %s on %S" name (Printexc.to_string e) s);
        within_budget name s t0
      done;
      (* The mutations must reach the error paths, not only valid input. *)
      if !rejected = 0 then Alcotest.failf "%s accepted every mutated input" name)
    (parsers ())

let suite =
  [
    Alcotest.test_case "seed inputs parse" `Quick test_seeds_parse;
    Alcotest.test_case "mutated inputs never raise" `Quick test_mutations_never_raise;
  ]
