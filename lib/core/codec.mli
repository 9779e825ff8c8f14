(** Serialization of instances and configurations, so games can be
    saved, shared, and re-verified.  Two interchangeable formats are
    supported: the line-oriented text format below and a JSON encoding
    ({!instance_to_json} & co.) shared by the [bbc serve] wire protocol.
    The CLI exposes them as [bbc save] (write a named construction),
    [bbc load] (read and verify), and [bbc convert] (read either
    format, validate, normalize, re-emit as text or JSON).

    Text format (line-oriented, '#' comments allowed):

    {v
    bbc-instance v1
    n 5
    penalty 40
    uniform 2            # uniform game with budget k = 2, or:
    budgets 1 1 1 1 1
    weights              # then n rows of n integers (general games)
    0 3 0 0 1
    ...
    costs                # n rows
    ...
    lengths              # n rows
    ...
    v}

    and for configurations:

    {v
    bbc-config v1
    n 5
    0: 1 3               # node: sorted targets (omitted lines = empty)
    2: 0
    v}

    The JSON encodings mirror the same data: instances are
    [{"type":"bbc-instance","version":1,"n":..,"penalty":..,
    "uniform_k":k}] (uniform games) or the same header with
    ["budgets"], ["weights"], ["costs"], ["lengths"] tables (general
    games); configurations are [{"type":"bbc-config","version":1,
    "n":..,"strategies":[[..],..]}] with one sorted target list per
    node. *)

val instance_to_string : Instance.t -> string

val instance_of_string : string -> (Instance.t, string) result

val config_to_string : Config.t -> string

val config_of_string : string -> (Config.t, string) result
(** The text format omits empty strategies, so its [n] is capped at
    2^20 (a parse error above, and below 0) before anything is
    allocated. *)

(** {1 JSON encoding}

    Round-trip exact: decoding an encoded value yields an instance /
    configuration equal to the original (same sizes, tables, penalty,
    uniformity). *)

val instance_to_json : Instance.t -> Json.t
val instance_of_json : Json.t -> (Instance.t, string) result
val config_to_json : Config.t -> Json.t
val config_of_json : Json.t -> (Config.t, string) result

val costs_to_json : objective:Objective.t -> social:int -> int array -> Json.t
(** Cost report ([{"type":"bbc-costs","objective":..,"costs":[..],
    "social":..}]) — the payload of the server's [cost] endpoint and of
    future [--json] flags. *)

val costs_of_json : Json.t -> (Objective.t * int array * int, string) result
(** Decodes {!costs_to_json}: [(objective, per-node costs, social)]. *)

(** {1 Format auto-detection}

    A payload whose first non-blank character is ['{'] is parsed as
    JSON, anything else as the text format — so [bbc convert], the
    server's [load_instance], and file loading accept either. *)

val instance_of_any_string : string -> (Instance.t, string) result
val config_of_any_string : string -> (Config.t, string) result

(** {1 Files} *)

val save_instance : string -> Instance.t -> (unit, string) result

val load_instance : string -> (Instance.t, string) result
(** Auto-detects the format like {!instance_of_any_string}. *)

val save_config : string -> Config.t -> (unit, string) result

val load_config : string -> (Config.t, string) result
(** Auto-detects the format like {!config_of_any_string}. *)
