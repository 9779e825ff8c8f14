(** Campaign specification: a deterministic cartesian grid of trials.

    A spec is the JSON-codable description of a Monte-Carlo sweep —
    instance-generator {e points} (a generator plus its size
    parameters), initial-configuration rules, schedulers, move policies,
    objectives, and a number of seeds per grid point.  The grid expands
    to [unit_count] work units in a fixed order (points outermost, seeds
    innermost), and {!unit} maps an index to its fully-specified
    {!Bbc.Trial.t} — including a per-unit seed derived from the campaign
    seed and the index alone, so any unit can be (re)executed anywhere,
    in any order, with bit-identical results.

    The JSON encoding is canonical after one decode: [to_json] of a
    decoded spec always renders the same bytes, which is how resume
    detects spec drift (the checkpoint directory stores the canonical
    rendering and compares bytewise). *)

type point = {
  generator : Bbc.Trial.generator;
  n : int;
  k : int;
  h : int;  (** default 2 *)
  l : int;  (** default 3 *)
}

type t = {
  name : string;
  seed : int;
  seeds_per_point : int;
  max_rounds : int;
  points : point list;
  inits : Bbc.Trial.init list;
  schedulers : Bbc.Trial.sched list;
  policies : Bbc.Trial.policy list;
  objectives : Bbc.Objective.t list;
}

val validate : t -> (unit, string) result
(** Non-empty axes, positive seeds-per-point and round budget, and every
    point x init x policy combination structurally valid
    ({!Bbc.Trial.validate} on a representative trial). *)

val unit_count : t -> int
(** [|points| * |inits| * |schedulers| * |policies| * |objectives| *
    seeds_per_point]. *)

val unit : t -> int -> Bbc.Trial.t
(** The [i]-th unit of the grid ([0 <= i < unit_count]).  Pure: depends
    only on the spec and [i].  Raises [Invalid_argument] out of range. *)

val to_json : t -> Bbc.Json.t
val of_json : Bbc.Json.t -> (t, string) result
(** Decoding applies defaults: [name] "campaign", [seed] 1,
    [max_rounds] 200, [h] 2 / [l] 3 per point, [inits] [[empty]],
    [schedulers] [[round-robin]], [policies] [[exact]], [objectives]
    [[sum]].  [seeds_per_point] and [points] are required. *)

val of_string : string -> (t, string) result
(** Parse + decode + {!validate}. *)

val load : string -> (t, string) result
(** {!of_string} on a file's contents. *)
