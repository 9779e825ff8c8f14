module I = Bbc.Instance

let test_uniform () =
  let t = I.uniform ~n:10 ~k:3 in
  Alcotest.(check int) "n" 10 (I.n t);
  Alcotest.(check (option int)) "k" (Some 3) (I.uniform_k t);
  Alcotest.(check int) "weight" 1 (I.weight t 0 5);
  Alcotest.(check int) "cost" 1 (I.cost t 2 7);
  Alcotest.(check int) "length" 1 (I.length t 1 9);
  Alcotest.(check int) "budget" 3 (I.budget t 4);
  Alcotest.(check bool) "penalty exceeds n*maxlen" true (I.penalty t > 10)

let test_uniform_validation () =
  let expect_invalid f =
    Alcotest.(check bool) "rejected" true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid (fun () -> I.uniform ~n:1 ~k:1);
  expect_invalid (fun () -> I.uniform ~n:5 ~k:0);
  expect_invalid (fun () -> I.uniform ~n:5 ~k:5)

let test_general () =
  let w = [| [| 0; 2 |]; [| 1; 0 |] |] in
  let c = [| [| 0; 3 |]; [| 1; 0 |] |] in
  let l = [| [| 1; 4 |]; [| 2; 1 |] |] in
  let t = I.general ~weight:w ~cost:c ~length:l ~budget:[| 3; 1 |] () in
  Alcotest.(check (option int)) "no uniform k" None (I.uniform_k t);
  Alcotest.(check int) "weight" 2 (I.weight t 0 1);
  Alcotest.(check int) "cost" 3 (I.cost t 0 1);
  Alcotest.(check int) "length" 2 (I.length t 1 0);
  Alcotest.(check bool) "default penalty > n * maxlen" true (I.penalty t > 2 * 4)

let test_general_validation () =
  let ones n = Array.init n (fun _ -> Array.make n 1) in
  let expect_invalid f =
    Alcotest.(check bool) "rejected" true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  (* ragged *)
  expect_invalid (fun () ->
      I.general
        ~weight:[| [| 0; 1 |]; [| 1 |] |]
        ~cost:(ones 2) ~length:(ones 2) ~budget:[| 1; 1 |] ());
  (* negative weight *)
  expect_invalid (fun () ->
      I.general
        ~weight:[| [| 0; -1 |]; [| 1; 0 |] |]
        ~cost:(ones 2) ~length:(ones 2) ~budget:[| 1; 1 |] ());
  (* zero length *)
  expect_invalid (fun () ->
      I.general ~weight:(ones 2) ~cost:(ones 2)
        ~length:[| [| 0; 0 |]; [| 1; 0 |] |]
        ~budget:[| 1; 1 |] ());
  (* penalty too small *)
  expect_invalid (fun () ->
      I.general ~penalty:2 ~weight:(ones 2) ~cost:(ones 2) ~length:(ones 2)
        ~budget:[| 1; 1 |] ())

let test_of_weights () =
  let t = I.of_weights ~k:2 [| [| 0; 5; 0 |]; [| 1; 0; 1 |]; [| 0; 0; 0 |] |] in
  Alcotest.(check int) "weight carried" 5 (I.weight t 0 1);
  Alcotest.(check int) "unit cost" 1 (I.cost t 0 2);
  Alcotest.(check int) "budget" 2 (I.budget t 1)

let test_with_penalty () =
  let t = I.uniform ~n:4 ~k:1 in
  let t' = I.with_penalty t 100 in
  Alcotest.(check int) "penalty updated" 100 (I.penalty t');
  Alcotest.(check int) "original unchanged" 16 (I.penalty t);
  Alcotest.(check bool) "too-small penalty rejected" true
    (try
       ignore (I.with_penalty t 4);
       false
     with Invalid_argument _ -> true)

(* n * (n - 1) * max_weight * M must stay below 2^62 = max_int + 1.
   With n = 4 and the default M = 2 * 4 + 1 = 9, the largest admissible
   weight is max_int / 108. *)
let heavy_column w = Array.init 4 (fun u -> Array.init 4 (fun v -> if v = 3 && u <> 3 then w else 1))

let rejected f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let test_cost_bound () =
  let ones () = Array.make_matrix 4 4 1 in
  let general w =
    I.general ~weight:(heavy_column w) ~cost:(ones ()) ~length:(ones ()) ~budget:(Array.make 4 1) ()
  in
  let under = max_int / 108 in
  let t = general under in
  Alcotest.(check int) "default penalty" 9 (I.penalty t);
  let r = Bbc.Best_response.exact t (Bbc.Config.empty 4) 0 in
  Alcotest.(check bool) "cost non-negative" true (r.cost >= 0);
  Alcotest.(check int) "cost realized" r.cost
    (Bbc.Eval.node_cost t (Bbc.Config.with_strategy (Bbc.Config.empty 4) 0 r.strategy) 0);
  Alcotest.(check bool) "general just over" true (rejected (fun () -> general (under + 1)));
  Alcotest.(check bool) "general at 2^59" true (rejected (fun () -> general (1 lsl 59)));
  Alcotest.(check bool) "of_weights just under" false
    (rejected (fun () -> I.of_weights ~k:1 (heavy_column under)));
  Alcotest.(check bool) "of_weights just over" true
    (rejected (fun () -> I.of_weights ~k:1 (heavy_column (under + 1))));
  let u = I.uniform ~n:4 ~k:1 in
  Alcotest.(check int) "with_penalty just under" (max_int / 12)
    (I.penalty (I.with_penalty u (max_int / 12)));
  Alcotest.(check bool) "with_penalty just over" true
    (rejected (fun () -> I.with_penalty u ((max_int / 12) + 1)));
  Alcotest.(check bool) "with_penalty keeps the weight bound" true
    (rejected (fun () -> I.with_penalty t 10))

(* A social cost sums n node costs: with n = 2 and M = 3 each node
   cost may reach max_int, so their sum would wrap (to -2 at weight
   max_int / 3).  The largest admissible weight is max_int / 6. *)
let test_social_cost_bound () =
  let game w =
    I.general ~penalty:3 ~weight:[| [| 0; w |]; [| w; 0 |] |]
      ~cost:[| [| 0; 1 |]; [| 1; 0 |] |] ~length:[| [| 1; 1 |]; [| 1; 1 |] |]
      ~budget:[| 1; 1 |] ()
  in
  Alcotest.(check bool) "node cost max_int rejected" true
    (rejected (fun () -> game 1537228672809129301));
  Alcotest.(check bool) "one unit over rejected" true (rejected (fun () -> game ((max_int / 6) + 1)));
  let t = game (max_int / 6) in
  Alcotest.(check int) "social cost of the empty profile" (6 * (max_int / 6))
    (Bbc.Eval.social_cost t (Bbc.Config.empty 2))

(* Uniform games: n * (n - 1) * 4n < 2^62 holds up to n = 2^20 and
   fails one node later; n so large that 4n overflows is rejected too. *)
let test_uniform_cost_bound () =
  let n = 1 lsl 20 in
  Alcotest.(check int) "n = 2^20 accepted" (4 * n) (I.penalty (I.uniform ~n ~k:1));
  Alcotest.(check bool) "n = 2^20 + 1 rejected" true
    (rejected (fun () -> I.uniform ~n:(n + 1) ~k:1));
  Alcotest.(check bool) "4n overflows" true (rejected (fun () -> I.uniform ~n:(max_int / 2) ~k:1))

let suite =
  [
    Alcotest.test_case "uniform accessors" `Quick test_uniform;
    Alcotest.test_case "uniform validation" `Quick test_uniform_validation;
    Alcotest.test_case "general accessors" `Quick test_general;
    Alcotest.test_case "general validation" `Quick test_general_validation;
    Alcotest.test_case "of_weights" `Quick test_of_weights;
    Alcotest.test_case "with_penalty" `Quick test_with_penalty;
    Alcotest.test_case "cost overflow bound" `Quick test_cost_bound;
    Alcotest.test_case "uniform cost bound" `Quick test_uniform_cost_bound;
    Alcotest.test_case "social cost bound" `Quick test_social_cost_bound;
  ]
