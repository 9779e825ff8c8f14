(** Independent trials of an experiment, run on the domain pool. *)

val run : ('row * 'input array) list -> ('row -> 'input -> 'output) -> ('row * 'output array) list
(** [run rows f] applies [f row input] to every input of every row in
    one {!Bbc_parallel.parallel_init} with [~chunk:1], and returns each
    row with its outputs in input order.  Draw the inputs before the
    call, in row and trial order from the experiment's one stream: [f]
    must not read it. *)
