(** Crash-safe campaign state on disk.

    A campaign directory holds [spec.json] (the canonical spec
    rendering, written once), numbered result chunks
    [chunk-00000000.jsonl ...] (one JSON line per completed unit), and
    [report.json] (the aggregate, rewritten after every chunk).  Every
    file is written atomically — contents go to a dot-prefixed temp file
    in the same directory, fsynced, then renamed — so a SIGKILL at any
    instant leaves either the previous state or the next, never a torn
    file.  [load] ignores temp files and keeps the first entry per unit
    id, making replayed chunks harmless. *)

type payload =
  | Done of Bbc.Trial.summary
  | Failed of string  (** quarantined: the trial's error or exception *)

type entry = { unit_id : int; payload : payload }

val entry_to_line : entry -> string
(** One JSON line, no trailing newline:
    [{"unit":N,"result":{...}}] or [{"unit":N,"error":"..."}]. *)

val entry_of_line : string -> (entry, string) result

val spec_path : string -> string
val report_path : string -> string

val ensure_dir : string -> (unit, string) result
(** Create the campaign directory (and parents) if needed. *)

val write_atomic : path:string -> string -> unit
(** Temp file + fsync + rename.  Raises [Sys_error]/[Unix.Unix_error]
    on I/O failure. *)

val append_chunk : dir:string -> index:int -> entry list -> string
(** Write [chunk-<index padded to 8>.jsonl] atomically; returns its
    path. *)

val load : dir:string -> units:int -> ((int, payload) Hashtbl.t * int, string) result
(** Scan the directory's chunks in name order.  Returns the completed
    units (first occurrence per id wins) and the next free chunk index.
    A malformed chunk line, or a unit id outside [\[0, units)], is an
    error — checkpoints are ours, so corruption should stop the
    campaign, not skew it. *)
