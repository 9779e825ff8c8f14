let run rows f =
  let tasks = Array.concat (List.map (fun (row, inputs) -> Array.map (fun x -> (row, x)) inputs) rows) in
  let outputs =
    Bbc_parallel.parallel_init ~chunk:1 (Array.length tasks) (fun i ->
        let row, x = tasks.(i) in
        f row x)
  in
  snd
    (List.fold_left_map
       (fun first (row, inputs) ->
         let k = Array.length inputs in
         (first + k, (row, Array.sub outputs first k)))
       0 rows)
