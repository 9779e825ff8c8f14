(** Campaign execution: expand the spec, skip checkpointed units,
    execute the rest in chunks, checkpoint each chunk atomically, and
    render the aggregate report.

    Determinism contract: the final [report.json] is a pure function of
    the spec — independent of jobs, chunk size, interruption and
    resume — because every unit's walk depends only on
    (campaign seed, unit index) and the aggregate is order-independent
    ({!Aggregate}).  A campaign directory is bound to its spec: [run]
    writes the canonical spec rendering on first use and refuses to
    resume over a different one. *)

type opts = {
  jobs : int option;  (** [None]: the {!Bbc_parallel} default *)
  checkpoint_every : int;  (** units per chunk; must be >= 1 *)
}

val default_opts : opts
(** Default jobs, checkpoint every 256 units. *)

type outcome = {
  total : int;  (** units in the grid *)
  skipped : int;  (** already checkpointed on entry *)
  executed : int;  (** run this invocation *)
  quarantined : int;  (** cumulative failed units *)
  report_path : string;
}

val run :
  ?on_chunk:(done_units:int -> total:int -> unit) ->
  opts ->
  dir:string ->
  Spec.t ->
  (outcome, string) result
(** Run (or resume) the campaign in [dir]: each chunk is the next
    [checkpoint_every] unchecked unit ids in ascending order, run as
    {!Bbc.Trial.run} calls on the {!Bbc_parallel} pool.  A unit whose
    trial fails or raises is quarantined on its first attempt (trials
    are pure, so a retry would fail the same way).  [on_chunk] fires
    after each checkpointed chunk with cumulative progress.  [Error] on
    [checkpoint_every < 1], an invalid spec, a directory bound to
    another spec, or a malformed checkpoint. *)

val report : dir:string -> (Bbc.Json.t, string) result
(** Recompute the aggregate report from [dir]'s spec and checkpoints
    without executing anything — byte-identical to the [report.json] a
    completed {!run} writes.  Incomplete campaigns report only their
    completed units. *)
