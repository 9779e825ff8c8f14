(** Server-side session store.

    A session owns one loaded/generated instance, its current
    configuration, and a memo of every node's cost per objective, so
    repeated [cost] requests against an unchanged configuration
    evaluate it once ([best_response] and [step_dynamics] price the
    mover from their own decision, [apply_move] with one
    {!Bbc.Eval.node_cost}, so none of them fills it).  {!set_config} drops
    the memo.

    Sessions are single-domain mutable state; the scheduler therefore
    serializes all requests that name the same session onto one worker
    per batch (see {!Engine}).  Different sessions are independent and
    run concurrently.

    The {!store} itself {e is} domain-safe: creation, lookup, removal
    and counting are mutex-protected, because session-creating and
    -destroying requests ([gen], [load_instance], [close_session])
    execute as independent groups on the domain pool and may run
    concurrently with each other and with lookups. *)

type t = {
  id : string;  (** ["s1"], ["s2"], … — deterministic creation order *)
  instance : Bbc.Instance.t;
  mutable config : Bbc.Config.t;  (** change it through {!set_config} *)
  mutable costs : (Bbc.Objective.t * int array) list;
      (** {!all_costs} memo for [config], at most one per objective *)
  mutable walk_index : int;  (** round-robin activations performed *)
  mutable walk_deviations : int;
  mutable walk_quiet : int;  (** trailing activations without a move *)
  mutable last_used_ns : int;
}

val set_config : t -> Bbc.Config.t -> unit
(** Update the configuration and drop the cost memo. *)

val all_costs : ?objective:Bbc.Objective.t -> t -> int array
(** Every node's cost ({!Bbc.Eval.all_costs}), computed once per
    configuration and objective.  The array is the memo itself: do not
    mutate it. *)

val node_cost : ?objective:Bbc.Objective.t -> t -> int -> int
(** [(all_costs ?objective s).(u)]. *)

type store

val create_store : ?capacity:int -> ?ttl_ns:int -> unit -> store
(** [capacity] defaults to 1024 live sessions.  [ttl_ns] (default
    10 minutes) is the idle TTL used by at-capacity eviction in {!add};
    [0] disables eviction, in which case capacity is only recovered by
    explicit [close_session]. *)

val add :
  store ->
  now_ns:int ->
  Bbc.Instance.t ->
  Bbc.Config.t ->
  (t, string) result
(** Mint a fresh session.  When the store is full, sessions idle longer
    than the TTL (by [last_used_ns]) are evicted first; [Error] only if
    the store is still at capacity afterwards, so abandoned sessions
    cannot exhaust the budget forever. *)

val find : store -> string -> t option
val remove : store -> string -> bool
val count : store -> int
